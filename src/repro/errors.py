"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed with inconsistent parameters.

    Examples: ``n <= 0``, ``t >= n``, a synchrony bound below 1, or an
    algorithm asked to run with more processes than its design supports.
    """


class ScheduleError(ReproError):
    """A schedule (sequence of steps) is malformed or inconsistent.

    Raised when a step references an unknown process, when a crashed
    process takes a step, or when message receive/send bookkeeping does
    not line up.
    """


class DetectorViolation(ReproError):
    """A failure-detector history violates the axioms of its class.

    For example a *perfect* detector history that suspects a process
    before it crashed (accuracy violation) or that never suspects a
    crashed process (completeness violation).
    """


class ScenarioError(ReproError):
    """A failure scenario is internally inconsistent or ill-formed.

    Examples: two crash events for the same process, a pending message
    whose sender does not crash within the weak-round-synchrony window,
    or a crash event that applies the round transition without having
    completed its sends.
    """


class ExecutionError(ReproError):
    """An executor could not make progress.

    Raised for instance when a run's horizon is exhausted before every
    required output was produced and the caller demanded completion.
    """
