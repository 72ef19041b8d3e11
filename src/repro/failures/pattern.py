"""Crash failure patterns (paper Section 2.1).

A failure pattern is a function ``F`` from clock ticks to sets of
processes, where ``F(t)`` is the set of processes that have crashed *by*
time ``t``.  Crashes are permanent (``F(t) ⊆ F(t+1)``): a process never
recovers.  We represent a pattern by the crash time of each faulty
process, which makes monotonicity true by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FailurePattern:
    """An immutable crash failure pattern over ``n`` processes.

    Attributes:
        n: Number of processes; process ids are ``0 .. n-1``.
        crash_times: Maps each *faulty* process to the first clock tick
            at which it is crashed.  A process with crash time ``0`` is
            *initially dead*: it never takes a single step.  Processes
            absent from the mapping are correct.
    """

    n: int
    crash_times: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"n must be positive, got {self.n}")
        for pid, time in self.crash_times.items():
            if not 0 <= pid < self.n:
                raise ConfigurationError(
                    f"crash of unknown process {pid} (n={self.n})"
                )
            if time < 0:
                raise ConfigurationError(
                    f"crash time of process {pid} is negative ({time})"
                )
        # Freeze the mapping so the dataclass is genuinely immutable.
        object.__setattr__(self, "crash_times", dict(self.crash_times))

    # -- paper-level queries -------------------------------------------------

    def crashed_by(self, t: int) -> frozenset[int]:
        """Return ``F(t)``: the processes crashed by time ``t``."""
        return frozenset(
            pid for pid, ct in self.crash_times.items() if ct <= t
        )

    def is_alive(self, pid: int, t: int) -> bool:
        """Return True iff ``pid`` has not crashed by time ``t``."""
        ct = self.crash_times.get(pid)
        return ct is None or ct > t

    @property
    def faulty(self) -> frozenset[int]:
        """``Faulty(F)``: processes that crash at some time."""
        return frozenset(self.crash_times)

    @property
    def correct(self) -> frozenset[int]:
        """``Correct(F) = Π \\ Faulty(F)``."""
        return frozenset(range(self.n)) - self.faulty

    @property
    def initially_dead(self) -> frozenset[int]:
        """Processes crashed at time 0, i.e. before taking any step."""
        return self.crashed_by(0)

    def crash_time(self, pid: int) -> int | None:
        """Return the crash time of ``pid``, or ``None`` if correct."""
        return self.crash_times.get(pid)

    def num_failures(self) -> int:
        """Return ``|Faulty(F)|``."""
        return len(self.crash_times)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def crash_free(cls, n: int) -> "FailurePattern":
        """A pattern in which every process is correct."""
        return cls(n=n, crash_times={})

    @classmethod
    def with_crashes(cls, n: int, crashes: Mapping[int, int]) -> "FailurePattern":
        """A pattern with the given ``pid -> crash time`` mapping."""
        return cls(n=n, crash_times=dict(crashes))

    # -- misc -----------------------------------------------------------------

    def describe(self) -> str:
        """Return a short human-readable description of the pattern."""
        if not self.crash_times:
            return f"crash-free({self.n})"
        parts = ", ".join(
            f"p{pid}@{t}" for pid, t in sorted(self.crash_times.items())
        )
        return f"crashes({self.n}; {parts})"
