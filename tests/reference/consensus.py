"""Reference consensus checkers, written from the paper's Section 5.1.

These are the run checkers ``repro.consensus.spec`` held before its
clauses moved into one shared module.  They import nothing from
``repro``: a run enters duck-typed through ``decisions`` (``pid ->
(round, value)``), ``values``, ``scenario.correct``,
``scenario.describe()``, ``final_states`` and ``num_rounds``.  They are
the second opinion the judges under ``src/repro`` are compared with.

The clauses, over a totally ordered value set:

* **Uniform validity** — if all processes start with the same value
  ``v``, then ``v`` is the only possible decision value.
* **Validity** — every decision was some process's initial value.
* **Uniform agreement** — no two processes (correct *or faulty*)
  decide differently.
* **Agreement** — no two correct processes decide differently.
* **Termination** — all correct processes eventually decide.
* **Integrity** — a process decides at most once: the recorded first
  decision still stands in its final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class SpecViolation:
    """One violated clause on one run."""

    clause: str
    detail: str
    scenario: str
    values: tuple


def _violation(run: Any, clause: str, detail: str) -> SpecViolation:
    return SpecViolation(
        clause=clause,
        detail=detail,
        scenario=run.scenario.describe(),
        values=run.values,
    )


def _common_checks(run: Any, violations: list[SpecViolation]) -> None:
    """Clauses shared by consensus and uniform consensus."""
    # Uniform validity.
    distinct_inputs = set(run.values)
    if len(distinct_inputs) == 1:
        only = next(iter(distinct_inputs))
        for pid, (_, value) in run.decisions.items():
            if value != only:
                violations.append(
                    _violation(
                        run,
                        "uniform validity",
                        f"unanimous input {only!r} but p{pid} decided "
                        f"{value!r}",
                    )
                )
    # Strong validity (all paper algorithms satisfy it).
    for pid, (_, value) in run.decisions.items():
        if value not in run.values:
            violations.append(
                _violation(
                    run,
                    "validity",
                    f"p{pid} decided {value!r}, which no process proposed",
                )
            )
    # Termination.
    for pid in run.scenario.correct:
        if pid not in run.decisions:
            violations.append(
                _violation(
                    run,
                    "termination",
                    f"correct process p{pid} never decided within "
                    f"{run.num_rounds} rounds",
                )
            )
    # Integrity: the recorded (first) decision must still stand.
    for pid, (_, value) in run.decisions.items():
        if pid in run.final_states:
            final = run.final_states[pid]
            final_decision = getattr(final, "decision", value)
            if final_decision is not None and final_decision != value:
                violations.append(
                    _violation(
                        run,
                        "integrity",
                        f"p{pid} first decided {value!r} but its final "
                        f"state says {final_decision!r}",
                    )
                )


def check_uniform_consensus_run(run: Any) -> list[SpecViolation]:
    """Check one finished run against the uniform consensus spec."""
    violations: list[SpecViolation] = []
    _common_checks(run, violations)
    decided = {pid: value for pid, (_, value) in run.decisions.items()}
    if len(set(decided.values())) > 1:
        violations.append(
            _violation(
                run,
                "uniform agreement",
                "processes decided differently: "
                + ", ".join(
                    f"p{pid}={value!r}" for pid, value in sorted(decided.items())
                ),
            )
        )
    return violations


def check_consensus_run(run: Any) -> list[SpecViolation]:
    """Check one finished run against the (non-uniform) consensus spec."""
    violations: list[SpecViolation] = []
    _common_checks(run, violations)
    correct_decisions = {
        pid: value
        for pid, (_, value) in run.decisions.items()
        if pid in run.scenario.correct
    }
    if len(set(correct_decisions.values())) > 1:
        violations.append(
            _violation(
                run,
                "agreement",
                "correct processes decided differently: "
                + ", ".join(
                    f"p{pid}={value!r}"
                    for pid, value in sorted(correct_decisions.items())
                ),
            )
        )
    return violations


def violated_clauses(run: Any) -> set[str]:
    """Every clause either checker rejects, uniform validity read as
    validity (which implies it)."""
    return {
        "validity" if v.clause == "uniform validity" else v.clause
        for v in check_uniform_consensus_run(run) + check_consensus_run(run)
    }
