"""The non-blocking atomic commit (NBAC) specification.

Votes are booleans (True = YES, False = NO); decisions are the strings
:data:`COMMIT` and :data:`ABORT`.

Clauses (uniform NBAC; uniform agreement and termination are those of
:mod:`repro.consensus.clauses`):

* **Uniform agreement** — no two processes decide differently.
* **Commit validity** — COMMIT requires every *cast* vote to be YES,
  where a vote is cast unless its owner is initially dead (in round
  terms: it crashed in round 1 reaching nobody, hence expressed its
  vote to no one — the paper's "initially dead" proviso).
* **Abort validity** — ABORT requires a NO vote or a failure
  (aborting a clean unanimous-YES run is forbidden).
* **Termination** — every correct process decides.

:func:`check_commit_obligation` captures the stronger guarantee the
synchronous model affords: all-YES and nobody initially dead imply
COMMIT, *despite crashes*.  This is exactly the clause an RWS algorithm
cannot honour (a pending YES vote is indistinguishable from a pending
NO vote), which is how SDD's solvability gap becomes a commit-rate gap.
"""

from __future__ import annotations

from repro.consensus import clauses
from repro.consensus.spec import SpecViolation, termination_violations, violation
from repro.rounds.executor import RoundRun

COMMIT = "COMMIT"
ABORT = "ABORT"


def _cast_votes(run: RoundRun) -> dict[int, bool]:
    """The votes actually cast: everyone except the initially dead."""
    dead = run.scenario.initially_dead()
    return {
        pid: bool(run.values[pid])
        for pid in range(run.n)
        if pid not in dead
    }


def check_nbac_run(run: RoundRun) -> list[SpecViolation]:
    """Check one finished run against the NBAC specification."""
    violations: list[SpecViolation] = []
    disagreeing = clauses.uniform_agreement(run.decisions)
    if disagreeing:
        violations.append(
            violation(
                run,
                "uniform agreement",
                "processes decided differently: "
                + ", ".join(
                    f"p{pid}={run.decisions[pid][1]}" for pid in disagreeing
                ),
            )
        )

    distinct = {value for _, value in run.decisions.values()}
    cast = _cast_votes(run)
    if COMMIT in distinct and not all(cast.values()):
        no_voters = sorted(pid for pid, vote in cast.items() if not vote)
        violations.append(
            violation(
                run,
                "commit validity",
                f"COMMIT decided although processes {no_voters} cast NO",
            )
        )

    clean = run.scenario.num_failures() == 0
    if ABORT in distinct and clean and all(cast.values()):
        violations.append(
            violation(
                run,
                "abort validity",
                "ABORT decided in a failure-free unanimous-YES run",
            )
        )
    return violations + termination_violations(run)


def check_commit_obligation(run: RoundRun) -> list[SpecViolation]:
    """The synchronous extra: all-YES + nobody initially dead => COMMIT.

    Returns violations for correct processes that decided ABORT in a
    run where every process voted YES and none was initially dead.
    This clause is *not* part of NBAC proper — it is the guarantee
    whose achievability separates SS from SP.
    """
    violations: list[SpecViolation] = []
    if not all(bool(v) for v in run.values):
        return violations
    if run.scenario.initially_dead():
        return violations
    for pid, (_, value) in run.decisions.items():
        if pid in run.scenario.correct and value != COMMIT:
            violations.append(
                violation(
                    run,
                    "commit obligation",
                    f"all voted YES and nobody was initially dead, yet "
                    f"p{pid} decided {value}",
                )
            )
    return violations
