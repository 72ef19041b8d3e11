"""The reference counter of a run's metrics: one count per hook call.

:func:`repro.obs.metrics.metrics_of` folds a recorded trace into the
standard metric set.  This module keeps the rules that fold replaced —
counting each observer hook as the engine calls it, round hooks by
``len(pairs)`` — as :class:`ReferenceMetrics`, an :class:`EventLog`
that records the run and counts it in the same pass.  The runtime keeps
no second counter; the tests that import this one are the check that
compares the two.
"""

from __future__ import annotations

from typing import Any, Collection, Sequence

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry


class ReferenceMetrics(EventLog):
    """Records the trace and counts every hook call into :attr:`registry`."""

    __slots__ = ("registry",)

    def __init__(self) -> None:
        super().__init__()
        self.registry = MetricsRegistry()

    def state(self) -> dict[str, Any]:
        return self.registry.state()

    def _count(self, name: str, round_index: int | None, amount: int = 1) -> None:
        # A round phase with no such message creates no counter:
        # message by message, nothing would have.
        if amount:
            self.registry.counter(name).inc(amount)
            if round_index is not None:
                self.registry.counter(f"{name}.round.{round_index}").inc(amount)

    def round_start(self, round_index: int, alive: Sequence[int]) -> None:
        super().round_start(round_index, alive)
        self.registry.counter("rounds.started").inc()
        self.registry.gauge("processes.alive").set(len(alive))

    def round_sends(self, round_index: int, pairs: Sequence[tuple[int, int]]) -> None:
        super().round_sends(round_index, pairs)
        self._count("messages.sent", round_index, len(pairs))

    def round_deliveries(
        self,
        round_index: int,
        pairs: Sequence[tuple[int, int]],
        withheld: Collection[tuple[int, int]] = (),
    ) -> None:
        super().round_deliveries(round_index, pairs, withheld)
        self._count("messages.withheld", round_index, len(withheld))
        self._count("messages.delivered", round_index, len(pairs) - len(withheld))

    def msg_sent(self, sender, recipient, *, round_index=None, **kwargs) -> None:
        super().msg_sent(sender, recipient, round_index=round_index, **kwargs)
        self._count("messages.sent", round_index)

    def msg_withheld(self, sender, recipient, round_index, **kwargs) -> None:
        super().msg_withheld(sender, recipient, round_index, **kwargs)
        self._count("messages.withheld", round_index)

    def msg_delivered(self, sender, recipient, *, round_index=None, **kwargs) -> None:
        super().msg_delivered(sender, recipient, round_index=round_index, **kwargs)
        self._count("messages.delivered", round_index)

    def crash(self, pid, **kwargs) -> None:
        super().crash(pid, **kwargs)
        self.registry.counter("crashes").inc()

    def suspect(self, pid, suspected, *, delay=None, **kwargs) -> None:
        super().suspect(pid, suspected, delay=delay, **kwargs)
        self.registry.counter("suspicions").inc()
        if delay is not None:
            delays = self.registry.histogram("detector.suspicion_delay.steps")
            delays.values.append(delay)

    def decide(self, pid, value, round_index=None, **kwargs) -> None:
        super().decide(pid, value, round_index, **kwargs)
        self.registry.counter("decisions").inc()
        if round_index is not None:
            self.registry.counter(f"decisions.round.{round_index}").inc()
            self.registry.histogram("decision.round").values.append(round_index)

    def halt(self, pid, round_index=None, **kwargs) -> None:
        super().halt(pid, round_index, **kwargs)
        self.registry.counter("halts").inc()
