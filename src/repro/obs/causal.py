"""Happens-before reconstruction over event traces.

The paper's central arguments are causal: Theorem 3.1's
indistinguishability is a statement about what information *could have
reached* a process, and the Λ latency separation (``Λ(A1)=1`` vs
``Λ(RWS)≥2``) counts causal message hops on the path to a decision.
This module rebuilds that structure from any :class:`EventLog` or JSONL
trace — deterministic engines, emulations, and the live runtime alike.
:func:`repro.obs.diff.local_view`, the one indistinguishability
relation, is a process's causal past in this DAG.

The happens-before relation (Lamport's ``→``) is generated by:

* **process order** — consecutive events executed by the same process;
* **message edges** — each ``msg_sent`` to its matched
  ``msg_delivered`` (and, informationally, its ``msg_withheld``).

Message matching uses, in priority order:

1. the ``extra["msg_id"]`` field on serialized events (only the live
   runtime emits it);
2. structural reconstruction: round-model messages match exactly on
   ``(round, sender, recipient)`` — the models allow at most one
   message per ordered pair per round — and step-model messages match
   FIFO per ``(sender, recipient)`` channel, which is conservative but
   always temporally valid (the i-th delivery on a channel cannot
   precede the i-th send).

A ``suspect`` event deliberately has **no** incoming edge from the
suspected process's crash: suspicion is caused by the *absence* of
messages, which happens-before cannot carry.  Forensics against the
ground-truth crash wall live in :mod:`repro.obs.critical`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.events import Event
from repro.obs.profile import profiled

#: Event kinds that correspond to a process executing a step.  A
#: ``round_start`` is a global marker and a ``msg_withheld`` is an
#: adversary observation — neither is an action of the process named in
#: its ``pid`` field, so neither joins a process chain.
_PROCESS_KINDS = frozenset(
    {"msg_sent", "msg_delivered", "crash", "suspect", "decide", "halt"}
)


@dataclass(frozen=True)
class CausalEdge:
    """One happens-before generator: ``events[src] -> events[dst]``."""

    src: int
    dst: int
    kind: str  # "process" or "message"


@dataclass
class CausalGraph:
    """The happens-before DAG over one trace.

    Indices are positions in :attr:`events`.  ``proc[i]`` names the
    process that *executed* event ``i`` (``None`` for global or
    adversary events), ``msg_ids[i]`` the resolved message identity of
    message events, and ``parents[i]`` the incoming edges.
    """

    events: Sequence[Event]
    proc: list[int | None] = field(default_factory=list)
    msg_ids: list[Any] = field(default_factory=list)
    parents: list[list[CausalEdge]] = field(default_factory=list)

    # -- queries ------------------------------------------------------------

    def cone(self, index: int) -> set[int]:
        """The causal past of ``events[index]``, inclusive.

        Every event that could possibly have influenced
        ``events[index]`` — what :func:`repro.obs.diff.local_view`
        builds a process's view from.
        """
        seen = {index}
        frontier = [index]
        while frontier:
            node = frontier.pop()
            for edge in self.parents[node]:
                if edge.src not in seen:
                    seen.add(edge.src)
                    frontier.append(edge.src)
        return seen

    def events_of(self, pid: int) -> list[int]:
        """Indices of the events process ``pid`` executed, in order."""
        return [i for i, p in enumerate(self.proc) if p == pid]

    def decide_indices(self) -> list[int]:
        return [
            i for i, e in enumerate(self.events) if e.kind == "decide"
        ]


def round_msg_id(round_index: int, sender: int, recipient: int) -> str:
    """The canonical message id for round-model messages.

    The round models permit at most one message per ordered
    ``(sender, recipient)`` pair per round, so this key is unique and
    the reconstruction derives it from the event alone.
    """
    return f"r{round_index}:{sender}>{recipient}"


def annotate(events: Sequence[Event]) -> CausalGraph:
    """Reconstruct the happens-before DAG from a trace: ``extra["msg_id"]``
    first, then structural matching."""
    with profiled("obs.causal.annotate"):
        return _annotate(events)


def _explicit_id(event: Event) -> Any:
    if isinstance(event.extra, dict):
        return event.extra.get("msg_id")
    return None


def _annotate(events: Sequence[Event]) -> CausalGraph:
    graph = CausalGraph(events=events)
    last_of: dict[int, int] = {}  # pid -> latest event index in its chain
    # Message matching state: explicit and structural send registries.
    send_by_explicit: dict[Any, int] = {}
    send_by_round_key: dict[tuple[int, int, int], int] = {}
    channel_sends: dict[tuple[int, int], list[int]] = {}
    channel_consumed: dict[tuple[int, int], int] = {}

    for index, event in enumerate(events):
        executing: int | None = None
        parents: list[CausalEdge] = []
        msg_id: Any = None

        if event.kind == "msg_sent":
            executing = event.peer  # sender
            msg_id = _explicit_id(event)
            if msg_id is None and event.round is not None:
                msg_id = round_msg_id(event.round, event.peer, event.pid)
            if msg_id is not None:
                send_by_explicit.setdefault(msg_id, index)
            if event.round is not None:
                send_by_round_key.setdefault(
                    (event.round, event.peer, event.pid), index
                )
            channel = (event.peer, event.pid)
            channel_sends.setdefault(channel, []).append(index)
        elif event.kind in ("msg_delivered", "msg_withheld"):
            if event.kind == "msg_delivered":
                executing = event.pid  # recipient
            send = _match_send(
                event,
                send_by_explicit,
                send_by_round_key,
                channel_sends,
                channel_consumed,
            )
            if send is not None:
                msg_id = graph.msg_ids[send]
                if send < index:
                    parents.append(CausalEdge(send, index, "message"))
        elif event.kind in _PROCESS_KINDS:
            executing = event.pid

        if executing is not None and executing in last_of:
            parents.append(CausalEdge(last_of[executing], index, "process"))

        graph.proc.append(executing)
        graph.msg_ids.append(msg_id)
        graph.parents.append(parents)
        if executing is not None:
            last_of[executing] = index

    return graph


def _match_send(
    event: Event,
    send_by_explicit: dict[Any, int],
    send_by_round_key: dict[tuple[int, int, int], int],
    channel_sends: dict[tuple[int, int], list[int]],
    channel_consumed: dict[tuple[int, int], int],
) -> int | None:
    explicit = _explicit_id(event)
    if explicit is not None and explicit in send_by_explicit:
        return send_by_explicit[explicit]
    if event.round is not None:
        return send_by_round_key.get((event.round, event.peer, event.pid))
    if event.kind == "msg_withheld":
        return None  # step-model withheld events do not exist
    channel = (event.peer, event.pid)
    cursor = channel_consumed.get(channel, 0)
    sends = channel_sends.get(channel, ())
    if cursor < len(sends):
        channel_consumed[channel] = cursor + 1
        return sends[cursor]
    return None
