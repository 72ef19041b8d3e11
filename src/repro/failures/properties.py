"""Mechanical checkers for the two axioms of the perfect detector ``P``.

These functions decide, over a *finite* time horizon, whether a history
satisfies strong completeness and strong accuracy for a given failure
pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.failures.history import FailureDetectorHistory
from repro.failures.pattern import FailurePattern


@dataclass
class PropertyReport:
    """Outcome of checking both axioms of ``P`` on one (pattern, history) pair.

    ``violations`` is empty exactly when the history satisfies ``P``.
    """

    strong_completeness: bool
    strong_accuracy: bool
    violations: list[str] = field(default_factory=list)


def check_strong_completeness(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> bool:
    """Every crashed process is permanently suspected by every correct one.

    Finite-horizon reading: for each crashed ``q`` and correct ``p``
    there is an onset ``t0 <= horizon`` with ``q ∈ H(p, t)`` for all
    ``t in [t0, horizon]`` — equivalently, ``q`` is suspected at the
    horizon.
    """
    for q in pattern.faulty:
        for p in pattern.correct:
            if q not in history.suspects(p, horizon):
                return False
    return True


def check_strong_accuracy(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> bool:
    """No process is suspected before it crashes, by anyone, ever."""
    for t in range(horizon + 1):
        crashed = pattern.crashed_by(t)
        for p in range(pattern.n):
            if history.suspects(p, t) - crashed:
                return False
    return True


def classify_history(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> PropertyReport:
    """Check both axioms and return a full report."""
    report = PropertyReport(
        strong_completeness=check_strong_completeness(history, pattern, horizon),
        strong_accuracy=check_strong_accuracy(history, pattern, horizon),
    )
    if not report.strong_accuracy:
        report.violations.append("a process was suspected before crashing")
    if not report.strong_completeness:
        report.violations.append(
            "a crash escaped permanent suspicion by some correct process"
        )
    return report
