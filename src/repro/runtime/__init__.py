"""The unified execution runtime: one seam over every engine.

The repo has four execution engines — the RS/RWS round executor, the
SS/SP step executor, and the two Section 4 emulations.  Before this
package, every caller (CLI, experiments, the oracle sweep)
carried its own driver loop over them.  The runtime replaces that
plumbing with a single interface:

* :class:`ExecutionRequest` → :class:`ExecutionResult` — one
  immutable, serializable description of a cell in, one structured
  result (deterministic trace + raw metrics + decisions) out;
* :class:`~repro.runtime.harness.Harness` adapters
  (:class:`~repro.runtime.harness.RoundHarness`,
  :class:`~repro.runtime.harness.SSEmulationHarness`,
  :class:`~repro.runtime.harness.SPEmulationHarness`) behind
  :func:`execute_request`;
* :class:`ScenarioSpace` — the canonical enumerator of run sets
  (explicit lists, the paper's named cells, seeded random streams with
  derived per-cell seeds);
* :class:`SweepRunner` — serial or ``multiprocessing`` execution with
  byte-identical merged traces, order-independent metric aggregation,
  an on-disk :class:`ResultCache`, and optional trace-oracle checking.

This is the architectural seam future scaling work (sharding, async
backends, distributed workers) plugs into: a new backend implements
the harness protocol and inherits sweeps, caching, merging and
checking for free.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "cache": ("CacheStats", "ResultCache"),
        "harness": (
            "HARNESSES",
            "Harness",
            "RoundHarness",
            "SPEmulationHarness",
            "SSEmulationHarness",
            "execute_batch",
            "execute_request",
            "harness_for",
        ),
        "pool": ("parallel_map",),
        "registry": (
            "ALGORITHM_FACTORIES",
            "UNIFORM_CONSENSUS_ALGORITHMS",
            "make_algorithm",
        ),
        "request": (
            "CACHE_SCHEMA_VERSION",
            "ENGINES",
            "ExecutionRequest",
            "ExecutionResult",
        ),
        "space": (
            "CELL_ALIASES",
            "NAMED_CELLS",
            "NamedCell",
            "SPACE_FACTORIES",
            "ScenarioSpace",
            "derived_seed",
            "e10_lambda_space",
            "named_cell",
            "oracle_sweep_space",
            "random_space",
            "space_by_name",
        ),
        "sweep": (
            "CellCheck",
            "SweepResult",
            "SweepRunner",
            "check_cell",
            "run_space",
        ),
    },
)

__all__ = [
    "ALGORITHM_FACTORIES",
    "CACHE_SCHEMA_VERSION",
    "CELL_ALIASES",
    "CacheStats",
    "CellCheck",
    "ENGINES",
    "ExecutionRequest",
    "ExecutionResult",
    "HARNESSES",
    "Harness",
    "NAMED_CELLS",
    "NamedCell",
    "ResultCache",
    "RoundHarness",
    "SPACE_FACTORIES",
    "SPEmulationHarness",
    "SSEmulationHarness",
    "ScenarioSpace",
    "SweepResult",
    "SweepRunner",
    "UNIFORM_CONSENSUS_ALGORITHMS",
    "check_cell",
    "derived_seed",
    "e10_lambda_space",
    "execute_batch",
    "execute_request",
    "harness_for",
    "make_algorithm",
    "named_cell",
    "oracle_sweep_space",
    "parallel_map",
    "random_space",
    "run_space",
    "space_by_name",
]
