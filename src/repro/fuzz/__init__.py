"""Differential fuzzing across all four engines (``repro fuzz``).

The repo runs the same algorithms four ways — the RS and RWS round
executor and the two Section-4 step-kernel emulations — and the paper's
central claim is that these agree.  This package makes that claim a
*fuzzable* property:

* :mod:`repro.fuzz.strategies` — seed-stable case generators, plus
  Hypothesis strategies over :class:`FailurePattern` /
  :class:`FailureScenario` / workload configurations (optional
  dependency);
* :mod:`repro.fuzz.oracles` — the per-case differential oracles
  (trace-check, emulation↔rounds twin, byte-exact replay);
* :mod:`repro.fuzz.shrink` — delta-debugging reduction of failing
  cases to minimal counterexamples;
* :mod:`repro.fuzz.campaign` — the campaign driver behind the
  ``repro fuzz`` CLI, including the batch jobs/cache parity oracles
  and replayable counterexample JSON.
"""

from repro._lazy import lazy_exports

# Bound eagerly: the submodule of the same name would shadow a lazy
# ``shrink`` as soon as anything imported it (see repro._lazy).
from repro.fuzz.shrink import shrink

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "campaign": (
            "Counterexample",
            "FuzzReport",
            "generate_cases",
            "load_counterexample",
            "resolve_engines",
            "run_campaign",
        ),
        "oracles": (
            "OracleFailure",
            "case_failures",
            "check_oracle",
            "replay_oracle",
            "run_case",
            "twin_oracle",
            "twin_request",
        ),
        "shrink": ("ShrinkResult", "shrink_moves"),
        "strategies": (
            "FUZZ_ENGINES",
            "SAFE_ALGORITHMS",
            "case_rng",
            "generate_case",
            "generate_pattern",
            "generate_scenario",
            "generate_values",
        ),
    },
)

__all__ = [
    "Counterexample",
    "FuzzReport",
    "FUZZ_ENGINES",
    "OracleFailure",
    "SAFE_ALGORITHMS",
    "ShrinkResult",
    "case_failures",
    "case_rng",
    "check_oracle",
    "generate_case",
    "generate_cases",
    "generate_pattern",
    "generate_scenario",
    "generate_values",
    "load_counterexample",
    "replay_oracle",
    "resolve_engines",
    "run_campaign",
    "run_case",
    "shrink",
    "shrink_moves",
    "twin_oracle",
    "twin_request",
]
