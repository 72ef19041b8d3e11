"""Typed, timestamped structured events and the log that records them.

The taxonomy is deliberately small and closed — eight kinds, each a
direct counterpart of a concept in the paper's run vocabulary:

==============  ==============================================
``round_start``  a round-model round begins
``msg_sent``     a message reached the network
``msg_withheld`` a sent message was withheld from its recipient
                 this round (RWS pending messages)
``msg_delivered`` a message was received
``crash``        a process crashed
``suspect``      a detector module began suspecting a process
``decide``       a process decided a value
``halt``         a process halted (will never send again)
==============  ==============================================

Every engine records a run into one :class:`EventLog` through its
typed hook methods, one per kind.  The round engines report a round's
message traffic a phase at a time through two further hooks,
:meth:`EventLog.round_sends` and :meth:`EventLog.round_deliveries`,
which add no event kind: they append the phase's ``msg_sent`` /
``msg_delivered`` / ``msg_withheld`` events in one pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count
from typing import (
    Any,
    Collection,
    Iterable,
    Iterator,
    NamedTuple,
    Sequence,
    TextIO,
)

#: ``json.dumps(value, default=repr, sort_keys=True)``, without building
#: an encoder per call.
_sorted_encode = json.JSONEncoder(sort_keys=True, default=repr).encode

#: ``json.dumps(value, default=repr)``: keys in insertion order.
_encode = json.JSONEncoder(default=repr).encode

#: The closed set of event kinds an :class:`EventLog` may contain.
EVENT_KINDS: frozenset[str] = frozenset(
    {
        "round_start",
        "msg_sent",
        "msg_withheld",
        "msg_delivered",
        "crash",
        "suspect",
        "decide",
        "halt",
    }
)


@dataclass(frozen=True, slots=True)
class Event:
    """One structured observation.

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        ts: The recording log's logical timestamp: the event's
            1-based position in record order.
        round: Round index for round-model events (1-based), if any.
        time: Global step time for step-model events, if any.
        pid: The process the event is about (recipient for deliveries,
            observer for suspicions).
        peer: The other process involved (sender for message events,
            the suspected process for ``suspect``).
        value: Event-specific payload (decision value, suspicion
            delay, ...).
    """

    kind: str
    ts: float
    round: int | None = None
    time: int | None = None
    pid: int | None = None
    peer: int | None = None
    value: Any = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict, omitting unset fields."""
        out: dict[str, Any] = {"kind": self.kind, "ts": self.ts}
        for key in ("round", "time", "pid", "peer", "value"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

    def to_json(self) -> str:
        return _sorted_encode(self.to_dict())

    def json_parts(self) -> tuple[str, str]:
        """:meth:`to_json` split around the timestamp.

        ``prefix + float.__repr__(ts) + suffix`` is byte-for-byte
        ``dataclasses.replace(self, ts=ts).to_json()`` for any finite
        ``ts``.  The split is structural — the keys sorting before and
        after ``"ts"`` are dumped separately — so a value that happens
        to contain the text ``"ts": 0.0`` cannot move it.  Lets a
        merged trace re-stamp a shared event without re-serializing it.
        """
        fields = self.to_dict()
        del fields["ts"]
        before = {key: val for key, val in fields.items() if key < "ts"}
        after = {key: val for key, val in fields.items() if key > "ts"}
        # ``before`` always holds "kind", so its dump ends in the one
        # closing brace that the remaining keys must stay inside.
        prefix = _sorted_encode(before)[:-1]
        suffix = ", " + _sorted_encode(after)[1:] if after else "}"
        return prefix + ', "ts": ', suffix

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Event":
        """Rebuild an event from a decoded JSONL object.

        Inverse of :meth:`to_dict` — unset optional fields come back as
        ``None``, so ``from_dict(e.to_dict()) == e`` for events whose
        ``value`` survives a JSON round trip.  Keys that are no event
        field are dropped.
        """
        return cls(
            kind=data["kind"],
            ts=data.get("ts", 0.0),
            round=data.get("round"),
            time=data.get("time"),
            pid=data.get("pid"),
            peer=data.get("peer"),
            value=data.get("value"),
        )


class EventParts(NamedTuple):
    """An event's JSON text on either side of its timestamp, in both key
    orders: ``head + ts + tail`` is :meth:`Event.to_json` (keys sorted,
    :meth:`Event.json_parts`) and ``stored_head + ts + stored_tail`` is
    ``json.dumps(event.to_dict(), default=repr)`` (keys in
    :meth:`Event.to_dict` order), ``ts`` spelled as JSON spells it."""

    head: str
    tail: str
    stored_head: str
    stored_tail: str


#: The types whose values print alike exactly when they are equal and of
#: one type: ``1 == True == 1.0`` and ``0.0 == -0.0`` print apart, NaN is
#: not even equal to itself, and an opaque object prints its ``repr``.
_EXACT = frozenset((str, int, bool, type(None)))

#: Every shape's parts, by :func:`_shape`: the one table, filled on first
#: sight and never evicted — a campaign meets a few hundred shapes.
_SHAPES: dict[tuple, EventParts] = {}


def event_parts(event: Event) -> EventParts:
    """``event``'s :class:`EventParts`, encoded once per *shape* — its
    fields but ``ts``, types included — and shared by every event of
    that shape; an event whose JSON its shape does not fix (a float, a
    nested or opaque value) is encoded on its own."""
    shape = _shape(event)
    if shape is None:
        return _split(event)
    parts = _SHAPES.get(shape)
    if parts is None:
        parts = _SHAPES[shape] = _split(event)
    return parts


def _shape(event: Event) -> tuple | None:
    """The shape table's key: every field but ``ts``, then their types,
    then the element types of a list or tuple value; ``None`` when a
    field or element is of a type outside :data:`_EXACT`."""
    value = event.value
    fields = (
        event.kind, event.round, event.time, event.pid, event.peer, value
    )
    types = tuple(map(type, fields))
    if _EXACT.issuperset(types):
        return fields + types
    if type(value) in (list, tuple) and _EXACT.issuperset(types[:-1]):
        items = tuple(map(type, value))
        if _EXACT.issuperset(items):
            return (*fields[:-1], tuple(value), *types, *items)
    return None


def _split(event: Event) -> EventParts:
    head, tail = event.json_parts()
    fields = event.to_dict()
    del fields["ts"]
    # "kind" is always first; what follows "ts" in to_dict order stays
    # inside the closing brace the way json_parts' "after" keys do.
    stored_head = _encode({"kind": fields.pop("kind")})[:-1] + ', "ts": '
    stored_tail = ", " + _encode(fields)[1:] if fields else "}"
    return EventParts(head, tail, stored_head, stored_tail)


class _EventBuilder:
    """The recording hooks' constructor for :class:`Event`.

    A frozen dataclass ``__init__`` is one ``object.__setattr__`` call
    per field; this class shares ``Event``'s slot layout, stores the
    fields as plain slot writes and then becomes an ``Event`` — so what
    a hook appends *is* a frozen, slotted ``Event``
    (``type(e) is Event``), at less than half the construction cost.
    Fields are positional, in ``Event``'s declaration order.
    """

    __slots__ = Event.__slots__

    def __init__(
        self,
        kind: str,
        ts: float,
        round: int | None = None,
        time: int | None = None,
        pid: int | None = None,
        peer: int | None = None,
        value: Any = None,
    ) -> None:
        self.kind = kind
        self.ts = ts
        self.round = round
        self.time = time
        self.pid = pid
        self.peer = peer
        self.value = value
        self.__class__ = Event


def events_from_jsonl_lines(lines: Iterable[str]) -> list[Event]:
    """Parse a JSONL trace back into :class:`Event` objects.

    Blank lines are skipped.  Raises :class:`ValueError` naming the line
    number on malformed JSON or non-object lines; schema-level problems
    (unknown kinds, missing fields) are the business of
    :func:`repro.obs.schema.validate_jsonl_lines`, run it first.
    """
    events: list[Event] = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(f"line {number}: event must be a JSON object")
        events.append(Event.from_dict(data))
    return events


class EventLog:
    """The recorder every engine writes into, exportable as JSONL.

    Engines report through typed hook methods rather than a single
    ``emit(event)`` funnel, and guard each call site with ``observer is
    not None``, so an unrecorded run builds no :class:`Event` at all.
    All hooks take the minimum information the engines have on hand;
    none return anything.

    Every event is stamped from the log's own logical counter (``ts``
    1.0, 2.0, 3.0, ... in record order), so a re-execution reproduces
    an exported trace byte for byte.
    """

    __slots__ = ("events", "_clock")

    def __init__(self) -> None:
        self.events: list[Event] = []
        self._clock = map(float, count(1)).__next__

    # -- recording hooks ----------------------------------------------------

    def round_start(self, round_index: int, alive: Sequence[int]) -> None:
        """Round ``round_index`` begins with ``alive`` processes."""
        self.events.append(
            _EventBuilder(
                "round_start",
                self._clock(),
                round_index,
                None,
                None,
                None,
                sorted(alive),
            )
        )

    def round_sends(
        self, round_index: int, pairs: Sequence[tuple[int, int]]
    ) -> None:
        """Round ``round_index``'s send phase: every ``(sender,
        recipient)`` whose message reached the network, in send order."""
        clock = self._clock
        self.events.extend(
            [
                _EventBuilder(
                    "msg_sent", clock(), round_index, None, recipient, sender
                )
                for sender, recipient in pairs
            ]
        )

    def round_deliveries(
        self,
        round_index: int,
        pairs: Sequence[tuple[int, int]],
        withheld: Collection[tuple[int, int]] = (),
    ) -> None:
        """Round ``round_index``'s receive phase over the ``pairs`` of
        :meth:`round_sends`: a pair in ``withheld`` (a subset of
        ``pairs``; RWS pending messages) was withheld from its
        recipient, every other one was delivered."""
        clock = self._clock
        self.events.extend(
            [
                _EventBuilder(
                    "msg_withheld"
                    if withheld and (sender, recipient) in withheld
                    else "msg_delivered",
                    clock(),
                    round_index,
                    None,
                    recipient,
                    sender,
                )
                for sender, recipient in pairs
            ]
        )

    def msg_sent(
        self,
        sender: int,
        recipient: int,
        *,
        round_index: int | None = None,
        time: int | None = None,
    ) -> None:
        """A message from ``sender`` to ``recipient`` reached the network."""
        self.events.append(
            _EventBuilder(
                "msg_sent",
                self._clock(),
                round_index,
                time,
                recipient,
                sender,
            )
        )

    def msg_withheld(
        self,
        sender: int,
        recipient: int,
        round_index: int,
    ) -> None:
        """A sent message was withheld this round (RWS pending)."""
        self.events.append(
            _EventBuilder(
                "msg_withheld",
                self._clock(),
                round_index,
                None,
                recipient,
                sender,
            )
        )

    def msg_delivered(
        self,
        sender: int,
        recipient: int,
        *,
        round_index: int | None = None,
        time: int | None = None,
    ) -> None:
        """A message from ``sender`` was received by ``recipient``."""
        self.events.append(
            _EventBuilder(
                "msg_delivered",
                self._clock(),
                round_index,
                time,
                recipient,
                sender,
            )
        )

    def crash(
        self,
        pid: int,
        *,
        round_index: int | None = None,
        time: int | None = None,
        applies_transition: bool | None = None,
    ) -> None:
        """Process ``pid`` crashed.

        For round-model crashes ``applies_transition`` records whether
        the process completed the round's transition before dying (the
        decide-then-crash move behind uniform agreement); step-model
        crashes leave it ``None``.  Recording it makes a trace a
        complete adversary description, which is what lets
        :mod:`repro.obs.replay` reconstruct the scenario exactly.
        """
        self.events.append(
            _EventBuilder(
                "crash",
                self._clock(),
                round_index,
                time,
                pid,
                None,
                applies_transition,
            )
        )

    def suspect(
        self,
        pid: int,
        suspected: int,
        *,
        time: int | None = None,
        delay: int | None = None,
    ) -> None:
        """``pid``'s detector module began suspecting ``suspected``.

        ``delay`` is the suspicion latency (onset minus crash time)
        when the caller knows it.
        """
        self.events.append(
            _EventBuilder(
                "suspect",
                self._clock(),
                None,
                time,
                pid,
                suspected,
                delay,
            )
        )

    def decide(
        self,
        pid: int,
        value: Any,
        round_index: int | None = None,
    ) -> None:
        """Process ``pid`` decided ``value``."""
        self.events.append(
            _EventBuilder(
                "decide",
                self._clock(),
                round_index,
                None,
                pid,
                None,
                value,
            )
        )

    def halt(
        self,
        pid: int,
        round_index: int | None = None,
    ) -> None:
        """Process ``pid`` halted — it will never send again."""
        self.events.append(
            _EventBuilder(
                "halt",
                self._clock(),
                round_index,
                None,
                pid,
                None,
            )
        )

    # -- queries ------------------------------------------------------------

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def kinds(self) -> list[str]:
        """The event kinds in record order (handy for sequence asserts)."""
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> list[Event]:
        return [event for event in self.events if event.kind == kind]

    # -- export -------------------------------------------------------------

    def jsonl_lines(self) -> Iterable[str]:
        for event in self.events:
            yield event.to_json()

    def dump_jsonl(self, fp: TextIO) -> int:
        """Write one JSON object per line; returns the event count."""
        for line in self.jsonl_lines():
            fp.write(line)
            fp.write("\n")
        return len(self.events)
