"""The columnar execution kernel: batched bitmask-state runs.

A batch group's control flow is one value-free run of the round
executor (the *plan*); the values then ride through it as ``int``
bitmasks over each cell's sorted value domain — ``W``-set unions are
bitwise ORs, ``min(W)`` a lowest-set-bit read — so whole batches of
:class:`~repro.runtime.space.ScenarioSpace` cells execute in one call
while producing event logs byte-identical to the object engine's.

Layering:

* :mod:`repro.vector.kernels` — the plan kernels: one value-erased
  ``RoundAlgorithm`` per supported algorithm, mirroring the object
  transition tables;
* :mod:`repro.vector.plan` — :func:`build_plan`, one executor run of a
  plan kernel under a recording observer, producing the group's shared
  hook sequence, batched value program and trace template;
* :mod:`repro.vector.engine` — the value kernel, the admissibility
  decision and the ``execute_vector_request`` / ``execute_vector_batch``
  entry points behind the ``engine="vector"`` harness.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "engine": (
            "VectorRun",
            "cell_domain",
            "execute_vector_batch",
            "execute_vector_request",
            "plan_for_request",
            "run_value_kernel",
        ),
        "kernels": ("PLAN_KERNELS", "plan_kernel_for"),
        "plan": ("GroupPlan", "build_plan"),
    },
)


def backend_name() -> str:
    """Always ``"python"``: there is one value kernel.  Kept only
    because ``ledger/run.py`` records it as host metadata and ``ledger/``
    may not change alongside the code it measures; the benchmark PR
    that drops that field drops this function."""
    return "python"


__all__ = [
    "GroupPlan",
    "PLAN_KERNELS",
    "VectorRun",
    "backend_name",
    "build_plan",
    "cell_domain",
    "execute_vector_batch",
    "execute_vector_request",
    "plan_for_request",
    "plan_kernel_for",
    "run_value_kernel",
]
