"""Exhaustive bounded model checking over the round semantics.

The checker closes the schedule space the fuzzer only samples: for
small ``n`` it walks *every* admissible crash-and-withhold schedule of
an algorithm up to a round horizon, prunes revisited configurations by
canonical state hashing (:mod:`repro.mc.config`), quotients the search
by declared process-id / value symmetries (:mod:`repro.mc.symmetry`)
and by view-preserving scenario dominance, enumerates the adversary's
choices up to each configuration's stabiliser (:mod:`repro.mc.explore`),
and evaluates the paper's properties over the reduced run set
(:mod:`repro.mc.properties`), emitting machine-checked verdicts —
``HOLDS(exhaustive)`` with frontier statistics, or ``REFUTED`` with a
witness that round-trips through the fuzzer's shrinker and ``repro
replay --repro`` (:mod:`repro.mc.verdict`).

Execution of the reduced frontier runs through the one campaign API:
the leaf schedules form a :class:`~repro.runtime.space.ScenarioSpace`
(:mod:`repro.mc.space`), so the checker is the third client — after
``repro sweep`` and ``repro fuzz`` — of the result cache, the run
directories and the ``repro serve`` shard fabric.
"""

from repro._lazy import lazy_exports

# Bound eagerly: the submodule of the same name would shadow a lazy
# ``explore`` as soon as anything imported it (see repro._lazy).
from repro.mc.explore import explore

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "checker": (
            "McOutcome",
            "McTask",
            "check",
            "mc_space_from_spec",
            "still_fails_for",
        ),
        "config": ("Configuration", "canonical_form"),
        "explore": ("ExploreStats", "Exploration", "Leaf"),
        "fixtures": ("classify_sdd_quadruple", "sdd_fixture_names"),
        "properties": ("PROPERTIES", "evaluate_property"),
        "space": (
            "frontier_space",
            "load_frontier",
            "save_frontier",
            "spec_for_task",
        ),
        "symmetry": ("SYMMETRIES", "symmetry_for"),
        "verdict": ("Verdict", "witness_document"),
    },
)

__all__ = [
    "Configuration",
    "ExploreStats",
    "Exploration",
    "Leaf",
    "McOutcome",
    "McTask",
    "PROPERTIES",
    "SYMMETRIES",
    "Verdict",
    "canonical_form",
    "check",
    "classify_sdd_quadruple",
    "evaluate_property",
    "explore",
    "frontier_space",
    "load_frontier",
    "mc_space_from_spec",
    "save_frontier",
    "sdd_fixture_names",
    "spec_for_task",
    "still_fails_for",
    "symmetry_for",
    "witness_document",
]
