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
import time
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence, TextIO

#: ``json.dumps(value, default=repr, sort_keys=True)``, without building
#: an encoder per call.
_sorted_encode = json.JSONEncoder(sort_keys=True, default=repr).encode

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
        ts: ``perf_counter`` timestamp at record time (wall-clock
            profile; not comparable across processes or logs).
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


def logical_clock() -> Callable[[], float]:
    """A deterministic timestamp source: 1.0, 2.0, 3.0, ...

    Inject into :class:`EventLog` to make exported traces reproducible
    byte-for-byte — the clock ``repro trace`` and ``repro replay`` use
    so that re-executions can be compared against the original export.
    """
    counter = count(1)
    return lambda: float(next(counter))


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


def clock_kind(events: Sequence[Event]) -> str:
    """Classify a trace's timestamp source: ``"logical"`` or ``"wall"``.

    :func:`logical_clock` stamps are exactly ``1.0, 2.0, 3.0, ...`` in
    record order; anything else (``perf_counter`` floats) is wall
    clock.  Comparing timestamps across one of each is meaningless —
    ``repro diff`` and the report layer warn on the mix.
    """
    if not events:
        return "logical"
    for index, event in enumerate(events, start=1):
        if event.ts != float(index):
            return "wall"
    return "logical"


class EventLog:
    """The recorder every engine writes into, exportable as JSONL.

    Engines report through typed hook methods rather than a single
    ``emit(event)`` funnel, and guard each call site with ``observer is
    not None``, so an unrecorded run builds no :class:`Event` at all.
    All hooks take the minimum information the engines have on hand;
    none return anything.

    Args:
        clock: Timestamp source; defaults to :func:`time.perf_counter`.
            Inject a counter in tests for deterministic timestamps.
    """

    __slots__ = ("events", "_clock")

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.events: list[Event] = []
        self._clock = clock if clock is not None else time.perf_counter

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
