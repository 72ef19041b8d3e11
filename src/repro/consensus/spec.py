"""Run checkers for consensus and uniform consensus (paper Section 5.1).

The clauses are :mod:`repro.consensus.clauses`; these checkers read a
:class:`RoundRun`'s decisions and its scenario's correct set and word
each finding as a :class:`SpecViolation`.  Plain consensus replaces
uniform agreement by agreement among correct processes (experiment
E14).  Validity implies uniform validity, so the latter is no separate
clause; *integrity* — the first decision still stands in the final
state — is the one clause only a run can show.  The checkers as they
stood before the clauses were shared are the reference oracle in
``tests/reference/consensus.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus import clauses
from repro.rounds.executor import RoundRun


@dataclass(frozen=True)
class SpecViolation:
    """One violated clause on one run."""

    clause: str
    detail: str
    scenario: str
    values: tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"[{self.clause}] {self.detail} "
            f"(values={self.values}, scenario={self.scenario})"
        )


def violation(run: RoundRun, clause: str, detail: str) -> SpecViolation:
    """One finding on ``run`` (NBAC's checkers word theirs with it too)."""
    return SpecViolation(clause, detail, run.scenario.describe(), run.values)


def termination_violations(run: RoundRun) -> list[SpecViolation]:
    """One violation per correct process that never decided."""
    return [
        violation(
            run,
            "termination",
            f"correct process p{pid} never decided within "
            f"{run.num_rounds} rounds",
        )
        for pid in clauses.termination(run.decisions, run.scenario.correct)
    ]


def _check(
    run: RoundRun, clause: str, label: str, pids: list[int]
) -> list[SpecViolation]:
    """Validity, termination, integrity, then ``clause`` broken by ``pids``."""
    decisions = run.decisions
    violations = [
        violation(
            run,
            "validity",
            f"p{pid} decided {decisions[pid][1]!r}, which no process proposed",
        )
        for pid in clauses.validity(decisions, run.values)
    ]
    violations += termination_violations(run)
    for pid, (_, value) in decisions.items():
        final = getattr(run.final_states.get(pid), "decision", value)
        if final is not None and final != value:
            violations.append(
                violation(
                    run,
                    "integrity",
                    f"p{pid} first decided {value!r} but its final "
                    f"state says {final!r}",
                )
            )
    if pids:
        violations.append(
            violation(
                run,
                clause,
                f"{label} decided differently: "
                + ", ".join(f"p{pid}={decisions[pid][1]!r}" for pid in pids),
            )
        )
    return violations


def check_uniform_consensus_run(run: RoundRun) -> list[SpecViolation]:
    """Check one finished run against the uniform consensus spec."""
    pids = clauses.uniform_agreement(run.decisions)
    return _check(run, "uniform agreement", "processes", pids)


def check_consensus_run(run: RoundRun) -> list[SpecViolation]:
    """Check one finished run against the (non-uniform) consensus spec."""
    pids = clauses.agreement(run.decisions, run.scenario.correct)
    return _check(run, "agreement", "correct processes", pids)
