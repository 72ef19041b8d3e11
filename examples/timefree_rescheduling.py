"""Time-freeness, live: reschedule a run without changing its outcome.

Section 2.7 of the paper restricts attention to *time-free* problems —
those whose verdicts depend only on each process's step projection
``S_i``, never on the global interleaving or the clock readings ``T``.
This example extracts a run's causal structure, generates several
alternative interleavings (linear extensions of the causal order), and
re-executes the algorithm under each, showing the decisions never move
— and neither does any process's local view (its causal past, see
``repro.obs.diff.local_view``), which the check compares too.

Run:  python examples/timefree_rescheduling.py
"""

import random

from repro.analysis import (
    check_time_free_execution,
    random_linear_extension,
    reexecute_with_projections,
)
from repro.failures import FailurePattern
from repro.sdd import sdd_decision, solve_sdd_ss
from repro.sdd.ss_algorithm import SDDReceiverSS, SDDSender


def main() -> None:
    phi, delta, value = 2, 2, 1
    pattern = FailurePattern.crash_free(2)  # p0 keeps taking (null) steps
    rng = random.Random(4)
    run = solve_sdd_ss(value, pattern, phi=phi, delta=delta, rng=rng)
    automata = [SDDSender(value), SDDReceiverSS(phi, delta)]

    print("original interleaving:")
    print(" ", [f"p{s.pid}" for s in run.schedule])
    print("  receiver decision:", sdd_decision(run))
    print()

    print("five projection-preserving reschedulings:")
    for seed in range(5):
        order = random_linear_extension(run, random.Random(seed))
        replay = reexecute_with_projections(
            run, automata, random.Random(seed)
        )
        interleaving = [f"p{node.pid}" for node in order]
        print(f"  {interleaving} -> decision {sdd_decision(replay)}")
    print()

    problems = check_time_free_execution(
        run,
        automata,
        outcome=lambda r, pid: getattr(r.final_states[pid], "decisions", None),
        rng=random.Random(9),
        attempts=10,
    )
    print(
        "local views and outcome invariant under 10 random reschedulings:",
        "yes" if not problems else problems,
    )
    print()
    print(
        "The SDD verdict is a function of the projections alone — the "
        "formal sense in which SDD is a time-free problem, and hence a "
        "fair witness for comparing SS and SP."
    )


if __name__ == "__main__":
    main()
