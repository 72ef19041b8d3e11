"""Model checking: find the paper's counterexamples from scratch.

The library reifies every adversary choice (crash rounds, partial
broadcasts, pending messages) as data, so the complete run space of a
small system is enumerable.  This example lets the enumerator rediscover
the counterexamples the paper constructs by hand — FloodSet's and A1's
RWS disagreements — and then certifies the repaired algorithms over the
same space.

Run:  python examples/model_checking.py
"""

from repro import (
    A1,
    FloodSet,
    FloodSetWS,
    RoundModel,
    check_uniform_consensus_run,
    verify_algorithm,
)
from repro.analysis import explore_runs
from repro.consensus.candidates import ROUND_ONE_CANDIDATES
from repro.analysis import refute_round_one_decision
from repro.trace import round_tableau


def first_counterexample(algorithm, model):
    """Scan the exhaustive run space for the first spec violation."""
    for run in explore_runs(algorithm, 3, 1, model):
        if check_uniform_consensus_run(run):
            return run
    return None


def main() -> None:
    print("=== rediscovering the FloodSet counterexample in RWS ===")
    run = first_counterexample(FloodSet(), RoundModel.RWS)
    print(f"scenario: {run.scenario.describe()}")
    print(round_tableau(run))
    print()

    print("=== rediscovering the A1 counterexample in RWS ===")
    run = first_counterexample(A1(), RoundModel.RWS)
    print(f"scenario: {run.scenario.describe()}")
    print(round_tableau(run))
    print()

    print("=== certifying the repaired algorithm over the full space ===")
    report = verify_algorithm(FloodSetWS(), 3, 1, RoundModel.RWS)
    print(report.describe())
    print()

    print("=== the Λ >= 2 lower bound, experimentally ===")
    print(
        "Every candidate that decides at round 1 of all failure-free RWS\n"
        "runs must lose uniform agreement somewhere (companion paper [7]):\n"
    )
    for candidate in ROUND_ONE_CANDIDATES:
        verdict = refute_round_one_decision(candidate, 3, 1)
        print(" ", verdict.describe())


if __name__ == "__main__":
    main()
