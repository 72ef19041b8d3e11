"""Counters, gauges, histograms, and a run's metrics as a fold over its trace.

The registry is deliberately tiny — names map to instruments, and a
snapshot is plain JSON-ready data.  Histogram snapshots reuse
:mod:`repro.stats` (:func:`~repro.stats.summarize` and
:func:`~repro.stats.percentile`) so reports and metrics describe
samples the same way.

Metric naming convention: dot-separated lowercase paths, with the unit
as the last path segment where it is not obvious from context
(``profile.<span>.seconds``); per-round counters carry the round index
as the final segment (``messages.sent.round.2``).

A run's metrics are not observed beside its trace: :func:`metrics_of`
computes them from the recorded events, so a trace read back from disk
or off the wire yields the same metrics as the run that recorded it.
"""

from __future__ import annotations

from collections import Counter as Tally
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Sequence

from repro.obs.events import Event
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
        self.merge_states((state,))

    def merge_states(self, states: Sequence[dict[str, Any]]) -> None:
        """:meth:`merge_state` each of ``states`` in order, with every
        distinct state *object*'s counters added once, times the number
        of places it holds in ``states``.

        A sweep's twins share one state object, so a stream of 2000
        cells over 109 runs adds 109 counter sets (a counter counts, so
        its values are ints and ``value * times`` is exact).  Gauges and
        histograms depend on the order (last write wins, samples
        extend), so they are still merged state by state.
        """
        multiplicity: dict[int, list[Any]] = {}
        for state in states:
            seen = multiplicity.get(id(state))
            if seen is None:
                multiplicity[id(state)] = [state, 1]
            else:
                seen[1] += 1
            for name, value in state.get("gauges", {}).items():
                self.gauge(name).set(value)
            for name, values in state.get("histograms", {}).items():
                self.histogram(name).values.extend(values)
        for state, times in multiplicity.values():
            for name, value in state.get("counters", {}).items():
                self.counter(name).inc(value * times)

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


#: Counter name per event kind; the _PER_ROUND kinds also count per round.
_COUNTED = {
    "round_start": "rounds.started",
    "msg_sent": "messages.sent",
    "msg_withheld": "messages.withheld",
    "msg_delivered": "messages.delivered",
    "decide": "decisions",
    "crash": "crashes",
    "suspect": "suspicions",
    "halt": "halts",
}
_PER_ROUND = frozenset({"msg_sent", "msg_withheld", "msg_delivered", "decide"})
_KIND_ROUND = attrgetter("kind", "round")


def metrics_of(events: Sequence[Event]) -> dict[str, Any]:
    """The standard metric set of one run, folded from its trace.

    Returns a :meth:`MetricsRegistry.state` dump.  Counters:

    * ``rounds.started`` — rounds the engine opened.
    * ``messages.sent`` / ``messages.sent.round.R`` — messages that
      reached the network, total and per round.
    * ``messages.withheld`` / ``messages.withheld.round.R`` — RWS
      pending messages.
    * ``messages.delivered`` / ``messages.delivered.round.R``.
    * ``decisions`` / ``decisions.round.R`` — decisions, total and by
      the round index they occurred in.
    * ``crashes``, ``halts``, ``suspicions``.

    Gauge ``processes.alive``: the alive count of the last round that
    records one.
    Histograms, in trace order: ``decision.round`` (decision round
    indices) and ``detector.suspicion_delay.steps`` (suspicion onset
    minus crash time, where the detector reported it).  No metric
    reads a decided value, so a template's value-free events give
    every cell's metrics.  An instrument exists only once an event
    feeds it.
    """
    counters: dict[str, int] = {}
    for (kind, round_index), count in Tally(map(_KIND_ROUND, events)).items():
        name = _COUNTED[kind]
        counters[name] = counters.get(name, 0) + count
        if round_index is not None and kind in _PER_ROUND:
            counters[f"{name}.round.{round_index}"] = count
    # The schema does not require a round_start's alive list.
    alive = [
        e.value for e in events if e.kind == "round_start" and e.value is not None
    ]
    histograms = {
        "decision.round": [
            e.round for e in events if e.kind == "decide" and e.round is not None
        ],
        "detector.suspicion_delay.steps": [
            e.value for e in events if e.kind == "suspect" and e.value is not None
        ],
    }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": {"processes.alive": len(alive[-1])} if alive else {},
        "histograms": {name: obs for name, obs in histograms.items() if obs},
    }
