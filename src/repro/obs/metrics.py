"""Counters, gauges, histograms, and the event-driven metrics observer.

The registry is deliberately tiny — names map to instruments, and a
snapshot is plain JSON-ready data.  Histogram snapshots reuse
:mod:`repro.stats` (:func:`~repro.stats.summarize` and
:func:`~repro.stats.percentile`) so benches, reports and metrics all
describe samples the same way.

Metric naming convention: dot-separated lowercase paths, with the unit
as the last path segment where it is not obvious from context
(``profile.<span>.seconds``); per-round counters carry the round index
as the final segment (``messages.sent.round.2``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Sequence

from repro.obs.events import Observer
from repro.stats import percentile, summarize


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """A sample of observations with a Summary-compatible snapshot."""

    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(value)

    def snapshot(self) -> dict[str, Any]:
        """min/mean/median/max/stdev plus p50/p90/p99 of the sample."""
        if not self.values:
            return {"count": 0}
        summary = summarize(self.values)
        return {
            "count": summary.count,
            "min": summary.minimum,
            "mean": summary.mean,
            "median": summary.median,
            "max": summary.maximum,
            "stdev": summary.stdev,
            "p50": percentile(self.values, 50),
            "p90": percentile(self.values, 90),
            "p99": percentile(self.values, 99),
        }


class MetricsRegistry:
    """Get-or-create instrument store with a JSON-ready snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = Histogram()
            return instrument

    def snapshot(self) -> dict[str, Any]:
        """All instruments as one JSON-ready mapping."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    def state(self) -> dict[str, Any]:
        """A lossless, JSON-ready dump: histograms keep raw samples.

        Unlike :meth:`snapshot` (which summarises histograms), the
        state form can be merged into another registry without losing
        information — the transport format the sweep runtime uses to
        aggregate per-worker registries into one.
        """
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: list(h.values)
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a :meth:`state` dump into this registry.

        Counters add, histogram samples extend (in dump order), gauges
        take the incoming value (last write wins) — so merging worker
        states in a fixed order yields the same aggregate regardless of
        how execution was scheduled across workers.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in state.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, values in state.get("histograms", {}).items():
            self.histogram(name).values.extend(values)

    def render(self) -> str:
        """A human-readable dump, one instrument per line."""
        lines: list[str] = []
        for name, counter in sorted(self._counters.items()):
            lines.append(f"{name} = {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            lines.append(f"{name} = {gauge.value:g}")
        for name, histogram in sorted(self._histograms.items()):
            snap = histogram.snapshot()
            if snap["count"] == 0:
                lines.append(f"{name}: (empty)")
            else:
                lines.append(
                    f"{name}: n={snap['count']} min={snap['min']:g} "
                    f"mean={snap['mean']:.4g} p50={snap['p50']:g} "
                    f"p90={snap['p90']:g} p99={snap['p99']:g} "
                    f"max={snap['max']:g}"
                )
        return "\n".join(lines)


class MetricsObserver(Observer):
    """Derive the standard metric set from the engines' event stream.

    Counters (per run unless noted):

    * ``rounds.started`` — rounds the engine opened.
    * ``messages.sent`` / ``messages.sent.round.R`` — messages that
      reached the network, total and per round.
    * ``messages.withheld`` / ``messages.withheld.round.R`` — RWS
      pending messages.
    * ``messages.delivered`` / ``messages.delivered.round.R``.
    * ``decisions`` / ``decisions.round.R`` — decisions, total and by
      the round index they occurred in.
    * ``crashes``, ``halts``, ``suspicions``.
    * ``scenario.validation_rejections`` — scenarios the validator
      refused.

    Histograms:

    * ``decision.round`` — distribution of decision round indices.
    * ``detector.suspicion_delay.steps`` — suspicion onset minus crash
      time, when the detector reports it.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def round_start(self, round_index: int, alive: Sequence[int]) -> None:
        self.registry.counter("rounds.started").inc()
        self.registry.gauge("processes.alive").set(len(alive))

    def _count(
        self, name: str, round_index: int | None, amount: int = 1
    ) -> None:
        """``amount`` more ``name`` messages, in total and per round."""
        # A round phase with no such message must not create the
        # counters: message by message, nothing would have.
        if amount:
            self.registry.counter(name).inc(amount)
            if round_index is not None:
                self.registry.counter(
                    f"{name}.round.{round_index}"
                ).inc(amount)

    def round_sends(
        self, round_index: int, pairs: Sequence[tuple[int, int]]
    ) -> None:
        self._count("messages.sent", round_index, len(pairs))

    def round_deliveries(
        self,
        round_index: int,
        pairs: Sequence[tuple[int, int]],
        withheld: Collection[tuple[int, int]] = (),
    ) -> None:
        self._count("messages.withheld", round_index, len(withheld))
        self._count(
            "messages.delivered", round_index, len(pairs) - len(withheld)
        )

    def msg_sent(
        self,
        sender: int,
        recipient: int,
        *,
        round_index: int | None = None,
        time: int | None = None,
        msg_id: Any = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        self._count("messages.sent", round_index)

    def msg_withheld(
        self,
        sender: int,
        recipient: int,
        round_index: int,
        *,
        msg_id: Any = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        self._count("messages.withheld", round_index)

    def msg_delivered(
        self,
        sender: int,
        recipient: int,
        *,
        round_index: int | None = None,
        time: int | None = None,
        msg_id: Any = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        self._count("messages.delivered", round_index)

    def crash(
        self,
        pid: int,
        *,
        round_index: int | None = None,
        time: int | None = None,
        applies_transition: bool | None = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        self.registry.counter("crashes").inc()

    def suspect(
        self,
        pid: int,
        suspected: int,
        *,
        time: int | None = None,
        delay: int | None = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        self.registry.counter("suspicions").inc()
        if delay is not None:
            self.registry.histogram(
                "detector.suspicion_delay.steps"
            ).observe(delay)

    def decide(
        self,
        pid: int,
        value: Any,
        round_index: int | None = None,
        *,
        extra: dict[str, Any] | None = None,
    ) -> None:
        self.registry.counter("decisions").inc()
        if round_index is not None:
            self.registry.counter(f"decisions.round.{round_index}").inc()
            self.registry.histogram("decision.round").observe(round_index)

    def halt(
        self,
        pid: int,
        round_index: int | None = None,
        *,
        extra: dict[str, Any] | None = None,
    ) -> None:
        self.registry.counter("halts").inc()

    def scenario_rejected(self, problems: Sequence[str]) -> None:
        self.registry.counter("scenario.validation_rejections").inc()
