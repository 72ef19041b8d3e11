"""The columnar execution kernel: batched array-state runs.

Per-process state lives in arrays (numpy ``(B, n)`` ``uint64`` bitmask
columns with the *scenario-batch* dimension first, or plain ``int``
lists without the ``fast`` extra), message delivery is a plan-computed
send/withhold schedule per round, and the FloodSet / FloodSetWS /
F_OptFloodSet[WS] / A1 transitions are batched bitwise ops — so whole
batches of :class:`~repro.runtime.space.ScenarioSpace` cells execute in
one vectorized call while producing event logs byte-identical to the
object engine's.

Layering:

* :mod:`repro.vector.backend` — numpy detection and the
  ``REPRO_VECTOR_BACKEND`` override;
* :mod:`repro.vector.kernels` — the value-free plan kernels (one per
  supported algorithm) mirroring the object transition tables;
* :mod:`repro.vector.plan` — per-group symbolic execution producing
  the shared hook sequence and the batched value program;
* :mod:`repro.vector.engine` — value kernels, trace materialization,
  and the ``execute_vector_request`` / ``execute_vector_batch`` entry
  points behind the ``engine="vector"`` harness.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "backend": ("BACKEND_ENV", "HAS_NUMPY", "backend_name"),
        "engine": (
            "MAX_NUMPY_DOMAIN",
            "VectorRun",
            "cell_domain",
            "execute_vector_batch",
            "execute_vector_request",
            "plan_for_request",
            "replay_plan",
            "run_value_kernel",
        ),
        "kernels": ("PLAN_KERNELS", "plan_kernel_for"),
        "plan": ("GroupPlan", "build_plan"),
    },
)

__all__ = [
    "BACKEND_ENV",
    "GroupPlan",
    "HAS_NUMPY",
    "MAX_NUMPY_DOMAIN",
    "PLAN_KERNELS",
    "VectorRun",
    "backend_name",
    "build_plan",
    "cell_domain",
    "execute_vector_batch",
    "execute_vector_request",
    "plan_for_request",
    "plan_kernel_for",
    "replay_plan",
    "run_value_kernel",
]
