"""Latency analysis and mechanical verification over run spaces.

This package turns the paper's Section 5.2 definitions into exact
computations:

* ``|r|`` — the latency degree of run ``r``: rounds until all correct
  processes have decided;
* ``lat(A) = min |r|`` over all runs;
* ``lat(A, C) = min |r|`` over runs from initial configuration ``C``;
* ``Lat(A) = max_C lat(A, C)``;
* ``Lat(A, f) = max |r|`` over runs with at most ``f`` crashes;
* ``Λ(A) = min_f Lat(A, f) = Lat(A, 0)``.

For small systems the run space of a round model is finite once crash
rounds are bounded, so every quantity is computed exactly by exhaustive
enumeration; randomized exploration covers larger systems.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "latency": (
            "LatencyProfile",
            "explore_runs",
            "latency_profile",
            "profile_and_verify",
            "verify_algorithm",
            "VerificationReport",
        ),
        "lowerbound": (
            "RoundOneVerdict",
            "refute_round_one_decision",
        ),
        "summary": ("SummaryRow", "latency_summary_table", "format_table"),
        "timefree": (
            "check_time_free_execution",
            "random_linear_extension",
            "reexecute_with_projections",
        ),
    },
)

__all__ = [
    "LatencyProfile",
    "explore_runs",
    "latency_profile",
    "profile_and_verify",
    "verify_algorithm",
    "VerificationReport",
    "RoundOneVerdict",
    "refute_round_one_decision",
    "SummaryRow",
    "latency_summary_table",
    "format_table",
    "check_time_free_execution",
    "random_linear_extension",
    "reexecute_with_projections",
]
