"""Trace templates: a value-free trace shared by cells, decide values as holes.

In the RS/RWS round models the message pattern of a run is fixed by
the failure scenario alone; the inputs only choose which *values* get
decided, so every trace splits into a value-free part and its decide
values.  A :class:`TraceTemplate` is that part, content-digested; a
:class:`TemplateEvents` is one cell's view of it — the template plus
the cell's decide values — that behaves like the cell's event list but
only builds it when somebody reads an event.  :func:`factor` splits a
recorded trace, so every run starts with a template of its own; a
result store (:class:`~repro.runtime.cache.ResultCache`) keeps one
instance per digest, and a sweep with a store rebinds each result it
puts to that instance, so equal traces of different runs share one.
A template's metrics are a fold over its events, made on first read.

The pair is the one form every result carries from the engine to disk:
the trace oracle, the causal summary, the merged-trace writer and the
result store each do their value-free work once per template
(:meth:`TraceTemplate.remember`) and touch only the holes per cell.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from typing import Any, Callable, Iterator, Mapping

from repro.obs.events import Event
from repro.obs.metrics import metrics_of


class TraceTemplate:
    """The value-free part of every cell that shares one trace.

    Attributes:
        events: The trace with ``None`` in every decide value.
        positions: Indices of the ``decide`` events, in slot order.
        metrics: The metrics-registry state of any cell citing the
            template, folded from :attr:`events` on first read
            (:func:`~repro.obs.metrics.metrics_of`; no metric depends
            on a decided value).  Shared by those cells: read-only.
        digest: Content hash of the three fields above, computed on
            first read; how stored cells cite their template.
        memo: Per-template results of value-free analyses, keyed by
            the consumer (see :meth:`remember`).  Never serialized or
            pickled.
    """

    __slots__ = ("events", "positions", "_metrics", "_digest", "memo")

    def __init__(
        self,
        events: Sequence[Event],
        positions: Sequence[int],
        digest: str | None = None,
    ) -> None:
        self.events = tuple(events)
        self.positions = tuple(positions)
        self._metrics: dict[str, Any] | None = None
        self._digest = digest
        self.memo: dict[Any, Any] = {}

    @property
    def metrics(self) -> dict[str, Any]:
        if self._metrics is None:
            self._metrics = metrics_of(self.events)
        return self._metrics

    @property
    def digest(self) -> str:
        # Lazy: a sweep without a result store never hashes a trace.
        if self._digest is None:
            body = json.dumps(self.body(), sort_keys=True, default=repr)
            self._digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return self._digest

    def body(self) -> dict[str, Any]:
        """The JSON-ready content; inverse of :meth:`from_body`."""
        return {
            "events": [event.to_dict() for event in self.events],
            "positions": list(self.positions),
            "metrics": self.metrics,
        }

    @classmethod
    def from_body(cls, body: Mapping[str, Any], digest: str) -> "TraceTemplate":
        return cls(
            [Event.from_dict(entry) for entry in body["events"]],
            body["positions"],
            digest,
        )

    def remember(self, key: Any, compute: Callable[[], Any]) -> Any:
        """``memo[key]``, computed on first use: how a consumer does its
        value-free work once per template instead of once per cell."""
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = compute()
            return value

    def fill(self, holes: Sequence[Any]) -> "TemplateEvents":
        """One cell's trace: this template with ``holes`` decided."""
        if len(holes) != len(self.positions):
            raise ValueError(
                f"template has {len(self.positions)} decide events, "
                f"got {len(holes)} values"
            )
        return TemplateEvents(self, tuple(holes))

    def __reduce__(self):
        return TraceTemplate, (self.events, self.positions, self._digest)


class TemplateEvents(Sequence):
    """A cell's event list, materialized from its template on first read.

    ``len()`` and :meth:`decides` never build the list, so telemetry
    and the per-template consumers stay O(holes) per cell.  ``template``
    may be rebound to another instance of the same digest (the store's:
    :meth:`repro.runtime.cache.ResultCache.put`); nothing else changes.
    """

    __slots__ = ("template", "holes", "_filled")

    def __init__(self, template: TraceTemplate, holes: tuple[Any, ...]) -> None:
        self.template = template
        self.holes = holes
        self._filled: list[Event] | None = None

    def decides(self) -> list[Event]:
        """The cell's own ``decide`` events, aligned with ``template.positions``."""
        events = self.template.events
        return [
            _with_value(events[position], value)
            for position, value in zip(self.template.positions, self.holes)
        ]

    def _materialize(self) -> list[Event]:
        if self._filled is None:
            filled = list(self.template.events)
            for position, event in zip(self.template.positions, self.decides()):
                filled[position] = event
            self._filled = filled
        return self._filled

    def __len__(self) -> int:
        return len(self.template.events)

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, TemplateEvents)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TemplateEvents({self.template.digest[:12]}, holes={self.holes!r})"

    def __reduce__(self):
        return TemplateEvents, (self.template, self.holes)


def factor(events: Sequence[Event]) -> TemplateEvents:
    """Split a plain trace into a template of its own and its holes:
    every ``decide`` value becomes a hole (``None`` in the template);
    everything else, each event's ``extra`` included, is the template's."""
    shared = list(events)
    positions = [
        index for index, event in enumerate(shared) if event.kind == "decide"
    ]
    holes = tuple(shared[position].value for position in positions)
    for position in positions:
        shared[position] = _with_value(shared[position], None)
    return TemplateEvents(TraceTemplate(shared, positions), holes)


def _with_value(event: Event, value: Any) -> Event:
    # The constructor, positionally — not dataclasses.replace, which
    # walks fields() and builds a kwargs dict per call; decide events
    # are rebuilt thousands of times per batch.
    return Event(
        event.kind,
        event.ts,
        event.round,
        event.time,
        event.pid,
        event.peer,
        value,
        event.extra,
    )
