"""Atomic commit: why a synchronous system commits more often.

The paper motivates SDD through atomic commit (Section 3): a
synchronous system can recover any vote whose owner was not initially
dead, so it may commit in runs where an asynchronous system with a
perfect failure detector must abort.  This example measures the gap
and exhibits why the optimistic rule cannot be transplanted to RWS.

Run:  python examples/atomic_commit.py
"""

from repro.commit import (
    check_nbac_run,
    compare_commit_rates,
)
from repro.commit.algorithms import (
    OptimisticFDCommit,
    PerfectFDCommit,
    SynchronousCommit,
    TwoPhaseCommit,
)
from repro.analysis import verify_algorithm
from repro.rounds import (
    CrashEvent,
    FailureScenario,
    PendingMessage,
    RoundModel,
    execute,
)
from repro.trace import round_tableau


def main() -> None:
    print("=== commit rates on the all-YES configuration (n=3, t=1) ===")
    for name, report in compare_commit_rates(n=3, t=1).items():
        print(f"  {name}: {report.describe()}")
    print()

    print("=== why the optimistic rule is unsafe in RWS ===")
    # Process 0 votes NO; its round-1 vote reaches process 1 in name only
    # (pending) and it crashes.  The optimistic rule sees all-YES.
    votes = (False, True, True)
    scenario = FailureScenario(
        n=3,
        crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1})),),
        pending=frozenset({PendingMessage(0, 1, 1)}),
    )
    run = execute(
        OptimisticFDCommit(), votes, scenario, t=1,
        model=RoundModel.RWS, max_rounds=3,
    )
    print(round_tableau(run))
    for violation in check_nbac_run(run):
        print("  violation:", violation)
    print()

    print("=== safety over every vote assignment and scenario ===")
    for algorithm, model in (
        (SynchronousCommit(), RoundModel.RS),
        (PerfectFDCommit(), RoundModel.RWS),
        (OptimisticFDCommit(), RoundModel.RWS),
        (TwoPhaseCommit(), RoundModel.RS),
    ):
        report = verify_algorithm(
            algorithm, 3, 1, model,
            checker=check_nbac_run, domain=(False, True), stop_after=5,
        )
        print(f"  {report.describe()}")
    print()
    print(
        "SynchronousCommit is both safe and maximally committing; the safe "
        "RWS algorithm pays with aborts; the optimistic RWS rule pays with "
        "commit-validity violations; 2PC pays with blocking."
    )


if __name__ == "__main__":
    main()
