"""Mechanical checkers for failure-detector axioms.

These functions decide, over a *finite* time horizon, whether a history
satisfies each completeness/accuracy property for a given failure
pattern.  Eventual ("◊") properties are checked as: the property holds
at every time from some onset up to the horizon.  This is the standard
finite-trace reading; histories produced by the library's detector
classes stabilise well before the horizons used in tests and experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.failures.history import FailureDetectorHistory
from repro.failures.pattern import FailurePattern


@dataclass
class PropertyReport:
    """Outcome of checking every axiom on one (pattern, history) pair."""

    strong_completeness: bool
    weak_completeness: bool
    strong_accuracy: bool
    weak_accuracy: bool
    eventual_strong_accuracy: bool
    eventual_weak_accuracy: bool
    violations: list[str] = field(default_factory=list)

    def matches_class(self, name: str) -> bool:
        """Return True iff the report satisfies detector class ``name``."""
        requirements = {
            "P": (self.strong_completeness, self.strong_accuracy),
            "<>P": (self.strong_completeness, self.eventual_strong_accuracy),
            "S": (self.strong_completeness, self.weak_accuracy),
            "<>S": (self.strong_completeness, self.eventual_weak_accuracy),
            "W": (self.weak_completeness, self.weak_accuracy),
            "<>W": (self.weak_completeness, self.eventual_weak_accuracy),
            "Q": (self.weak_completeness, self.strong_accuracy),
            "<>Q": (self.weak_completeness, self.eventual_strong_accuracy),
        }
        if name not in requirements:
            raise KeyError(f"unknown detector class {name!r}")
        return all(requirements[name])


def check_strong_completeness(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> bool:
    """Every crashed process is permanently suspected by every correct one.

    Finite-horizon reading: for each crashed ``q`` and correct ``p``
    there is an onset ``t0 <= horizon`` with ``q ∈ H(p, t)`` for all
    ``t in [t0, horizon]`` — equivalently, ``q`` is suspected at the
    horizon and suspicion, once begun, persisted.
    """
    for q in pattern.faulty:
        for p in pattern.correct:
            if not _permanently_suspected(history, p, q, horizon):
                return False
    return True


def check_weak_completeness(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> bool:
    """Every crashed process is permanently suspected by some correct one."""
    for q in pattern.faulty:
        if not any(
            _permanently_suspected(history, p, q, horizon)
            for p in pattern.correct
        ):
            return False
    return True


def _permanently_suspected(
    history: FailureDetectorHistory, p: int, q: int, horizon: int
) -> bool:
    """True iff from some time on, ``p`` suspects ``q`` until the horizon."""
    if q not in history.suspects(p, horizon):
        return False
    # Find the latest onset and verify persistence from there: walk
    # backwards while still suspected.
    t = horizon
    while t > 0 and q in history.suspects(p, t - 1):
        t -= 1
    # Suspicion holds on [t, horizon]; it is permanent for the finite trace.
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


def check_weak_accuracy(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> bool:
    """Some correct process is never suspected by any process."""
    candidates = set(pattern.correct)
    for t in range(horizon + 1):
        if not candidates:
            return False
        for p in range(pattern.n):
            candidates -= history.suspects(p, t)
    return bool(candidates)


def check_eventual_strong_accuracy(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> bool:
    """From some time on, correct processes are not suspected by correct ones.

    Finite-horizon reading: at the horizon (and as witnessed by the
    latest stretch of the trace), no correct process suspects a correct
    process.
    """
    for p in pattern.correct:
        if history.suspects(p, horizon) & pattern.correct:
            return False
    return True


def check_eventual_weak_accuracy(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> bool:
    """From some time on, some correct process is unsuspected by correct ones."""
    for candidate in pattern.correct:
        if all(
            candidate not in history.suspects(p, horizon)
            for p in pattern.correct
        ):
            return True
    return False


def classify_history(
    history: FailureDetectorHistory,
    pattern: FailurePattern,
    horizon: int,
) -> PropertyReport:
    """Check every axiom and return a full report."""
    report = PropertyReport(
        strong_completeness=check_strong_completeness(history, pattern, horizon),
        weak_completeness=check_weak_completeness(history, pattern, horizon),
        strong_accuracy=check_strong_accuracy(history, pattern, horizon),
        weak_accuracy=check_weak_accuracy(history, pattern, horizon),
        eventual_strong_accuracy=check_eventual_strong_accuracy(
            history, pattern, horizon
        ),
        eventual_weak_accuracy=check_eventual_weak_accuracy(
            history, pattern, horizon
        ),
    )
    if not report.strong_accuracy:
        report.violations.append("a process was suspected before crashing")
    if not report.strong_completeness:
        report.violations.append(
            "a crash escaped permanent suspicion by some correct process"
        )
    return report
