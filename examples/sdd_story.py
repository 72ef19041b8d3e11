"""The SDD story: one problem separates SS from SP.

Section 3 of the paper in executable form: the Strongly Dependent
Decision problem is trivial in the synchronous model and impossible
with a perfect failure detector.

Run:  python examples/sdd_story.py
"""

import random

from repro.failures import FailurePattern
from repro.sdd import (
    SP_CANDIDATE_FACTORIES,
    check_sdd_run,
    refute_sdd_candidate,
    sdd_decision,
    solve_sdd_ss,
)


def main() -> None:
    print("=== SS solves SDD ===")
    print(
        "The receiver waits Φ+1+Δ of its own steps; a sender that was "
        "not initially dead is guaranteed heard by then.\n"
    )
    for label, crashes in (
        ("sender correct", {}),
        ("sender initially dead", {0: 0}),
        ("sender crashes after one step", {0: 1}),
    ):
        pattern = FailurePattern.with_crashes(2, dict(crashes))
        run = solve_sdd_ss(1, pattern, phi=1, delta=2, rng=random.Random(3))
        verdict = check_sdd_run(run, 1)
        print(f"{label}: decision={sdd_decision(run)} -> {verdict.describe()}")
    print()

    print("=== SP cannot solve SDD (Theorem 3.1) ===")
    print(
        "Each candidate receiver runs through the proof's four runs: \n"
        "r0/r1 (sender initially dead) and r0'/r1' (sender sends once,\n"
        "crashes, message delayed past the decision).  The receiver's\n"
        "observations are identical in all four, so validity must break.\n"
    )
    for name, factory in SP_CANDIDATE_FACTORIES.items():
        print(refute_sdd_candidate(factory, name).describe())
        print()


if __name__ == "__main__":
    main()
