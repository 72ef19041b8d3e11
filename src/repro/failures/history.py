"""Failure-detector histories (paper Section 2.5).

A failure-detector history is a function ``H : Π × T -> 2^Π`` where
``H(p, t)`` is the set of processes that ``p``'s local detector module
suspects at time ``t``.  A failure *detector* maps each failure pattern
to a set of histories; the history actually observed in a run is one
element of that set.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, Mapping


class FailureDetectorHistory(ABC):
    """Abstract history: who does each process suspect at each time."""

    @abstractmethod
    def suspects(self, pid: int, t: int) -> frozenset[int]:
        """Return ``H(pid, t)``."""


class TableHistory(FailureDetectorHistory):
    """A history backed by an explicit ``(pid, t) -> suspects`` table.

    Queries beyond the last tabulated time return the suspicion set at
    the last tabulated time (histories we tabulate are stable by then);
    queries before the first tabulated entry return the empty set.
    """

    def __init__(self, table: Mapping[tuple[int, int], Iterable[int]]) -> None:
        self._table: dict[tuple[int, int], frozenset[int]] = {
            key: frozenset(value) for key, value in table.items()
        }
        self._max_time: dict[int, int] = {}
        for pid, t in self._table:
            if t > self._max_time.get(pid, -1):
                self._max_time[pid] = t

    def suspects(self, pid: int, t: int) -> frozenset[int]:
        if (pid, t) in self._table:
            return self._table[(pid, t)]
        last = self._max_time.get(pid)
        if last is not None and t > last:
            return self._table[(pid, last)]
        # Walk backwards to the most recent tabulated entry.
        for back in range(t, -1, -1):
            if (pid, back) in self._table:
                return self._table[(pid, back)]
        return frozenset()


class FunctionHistory(FailureDetectorHistory):
    """A history computed on the fly by a ``(pid, t) -> set`` function."""

    def __init__(self, fn: Callable[[int, int], Iterable[int]]) -> None:
        self._fn = fn

    def suspects(self, pid: int, t: int) -> frozenset[int]:
        return frozenset(self._fn(pid, t))


class ConstantHistory(FailureDetectorHistory):
    """A history in which every process always suspects the same set.

    Mostly useful in tests and as a degenerate adversarial history (for
    instance, the empty constant history never suspects anyone, which
    violates completeness whenever somebody crashes).
    """

    def __init__(self, suspected: Iterable[int] = ()) -> None:
        self._suspected = frozenset(suspected)

    def suspects(self, pid: int, t: int) -> frozenset[int]:
        return self._suspected
