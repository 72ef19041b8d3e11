"""Trace diffing: divergence points and indistinguishability of runs.

The paper's central proof device (Theorem 3.1) is a *pair of runs a
process cannot tell apart*: the receiver has the same local view in
``r0`` and ``r0'``, hence must decide the same value.  Over event
traces this becomes executable: a process's view is its causal past —
every event that could have influenced it, grouped into one chain per
process — plus the inputs that past rests on, with global timing
dropped (a process has no access to global time).

Two granularities:

* :func:`first_divergence` / :func:`diff_traces` — full-trace
  comparison with per-process lanes, reporting the first diverging
  event and its index in *both* traces.
* :func:`local_view` — the one definition of what a single process
  sees, the object indistinguishability arguments quantify over
  (``repro diff --pid``, the SDD quadruple fixtures, mc's
  ``indistinguishability`` property and the time-free rescheduling
  check all compare it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Sequence

from repro.obs.causal import annotate
from repro.obs.events import Event

#: The event kinds a view keeps from the causal past.  ``crash`` and
#: ``halt`` are left out: the process itself does not observe them (a
#: crash is visible only through missing messages and suspicions,
#: which the view does hold).
VIEW_KINDS = frozenset({"msg_sent", "msg_delivered", "suspect", "decide"})

#: Fields ignored by default when comparing whole traces.
DEFAULT_IGNORE = ("ts",)


@dataclass(frozen=True)
class Divergence:
    """The first point at which two (sub)sequences of events differ.

    Attributes:
        position: 0-based position within the compared sequences.
        index_a / index_b: Index of the diverging event in the full
            original traces (``None`` when that trace's sequence ended).
        event_a / event_b: The diverging events themselves.
    """

    position: int
    index_a: int | None
    index_b: int | None
    event_a: Event | None
    event_b: Event | None

    def describe(self) -> str:
        def side(index: int | None, event: Event | None) -> str:
            if event is None:
                return "<ended>"
            return f"event {index}: {event.to_json()}"

        return (
            f"diverge at position {self.position}:\n"
            f"  a: {side(self.index_a, self.event_a)}\n"
            f"  b: {side(self.index_b, self.event_b)}"
        )


def _projection(event: Event, ignore: Sequence[str]) -> dict[str, Any]:
    data = event.to_dict()
    for name in ignore:
        data.pop(name, None)
    return data


def first_divergence(
    a: Sequence[Event],
    b: Sequence[Event],
    *,
    ignore: Sequence[str] = DEFAULT_IGNORE,
    indices_a: Sequence[int] | None = None,
    indices_b: Sequence[int] | None = None,
) -> Divergence | None:
    """The first position where the two sequences differ, or ``None``.

    ``indices_a``/``indices_b`` map sequence positions back to indices
    in the full traces (used by :func:`diff_traces` for per-process
    lanes); by default positions index the sequences themselves.
    """
    return _divergence(
        a,
        b,
        lambda event: _projection(event, ignore),
        range(len(a)) if indices_a is None else indices_a,
        range(len(b)) if indices_b is None else indices_b,
    )


def _divergence(
    a: Sequence[Event],
    b: Sequence[Event],
    key: Callable[[Event], Any],
    indices_a: Sequence[int],
    indices_b: Sequence[int],
) -> Divergence | None:
    for position in range(max(len(a), len(b))):
        event_a = a[position] if position < len(a) else None
        event_b = b[position] if position < len(b) else None
        if (
            event_a is not None
            and event_b is not None
            and key(event_a) == key(event_b)
        ):
            continue
        return Divergence(
            position=position,
            index_a=indices_a[position] if event_a is not None else None,
            index_b=indices_b[position] if event_b is not None else None,
            event_a=event_a,
            event_b=event_b,
        )
    return None


@dataclass
class TraceDiff:
    """Full-trace comparison with per-process lanes."""

    divergence: Divergence | None
    per_process: dict[int, Divergence | None] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def diverging_processes(self) -> list[int]:
        return sorted(
            pid for pid, div in self.per_process.items() if div is not None
        )

    def describe(self) -> str:
        if self.identical:
            return "traces identical"
        lines = [self.divergence.describe()]
        diverging = self.diverging_processes()
        if diverging:
            lines.append(
                "per-process lanes diverging: "
                + ", ".join(f"p{pid}" for pid in diverging)
            )
            for pid in diverging:
                lane = self.per_process[pid]
                lines.append(f"p{pid}: " + lane.describe())
        else:
            lines.append("no single-process lane diverges (global order only)")
        return "\n".join(lines)


def diff_traces(
    a: Sequence[Event],
    b: Sequence[Event],
    *,
    ignore: Sequence[str] = DEFAULT_IGNORE,
) -> TraceDiff:
    """Compare two traces globally and per-process.

    The global comparison finds the first event (in stream order) that
    differs modulo ``ignore``.  Each per-process lane compares only the
    events naming that pid in their ``pid`` field, so a divergence can
    be attributed: two runs that differ globally but agree on every
    lane differ only in interleaving.
    """
    global_div = first_divergence(a, b, ignore=ignore)
    pids = sorted(
        {e.pid for e in a if e.pid is not None}
        | {e.pid for e in b if e.pid is not None}
    )
    per_process: dict[int, Divergence | None] = {}
    for pid in pids:
        lane_a = [(i, e) for i, e in enumerate(a) if e.pid == pid]
        lane_b = [(i, e) for i, e in enumerate(b) if e.pid == pid]
        per_process[pid] = first_divergence(
            [e for _, e in lane_a],
            [e for _, e in lane_b],
            ignore=ignore,
            indices_a=[i for i, _ in lane_a],
            indices_b=[i for i, _ in lane_b],
        )
    return TraceDiff(divergence=global_div, per_process=per_process)


def _view_chains(
    events: Sequence[Event], pid: int, upto: int | None
) -> dict[int, list[int]]:
    """``process -> trace indices`` of the view's events, by process.

    The causal past of ``pid``'s events before index ``upto``, each
    event filed under the process that executed it and filtered to
    :data:`VIEW_KINDS`.  ``pid`` always has a chain, even an empty one.
    A chain is in trace order, except that the messages one step
    receives (consecutive deliveries sharing ``round`` and ``time``)
    are a set, listed by sender: the order a step's buffer held them
    in is an artifact of the global interleaving.
    """
    graph = annotate(events)
    own = [
        index
        for index in graph.events_of(pid)
        if upto is None or index < upto
    ]
    # Process order puts every earlier own event in the last one's past.
    past = graph.cone(own[-1]) if own else set()
    chains: dict[int, list[int]] = {pid: []}
    for index in sorted(past):
        if events[index].kind in VIEW_KINDS:
            chains.setdefault(graph.proc[index], []).append(index)
    for process, chain in chains.items():
        steps = groupby(
            chain,
            key=lambda i: (events[i].kind, events[i].round, events[i].time),
        )
        chains[process] = [
            index
            for (kind, _, _), step in steps
            for index in (
                sorted(step, key=lambda i: events[i].peer)
                if kind == "msg_delivered"
                else step
            )
        ]
    return dict(sorted(chains.items()))


def _observed(event: Event) -> tuple[Any, ...]:
    """An event as a view holds it.  Timestamps and global step times
    are dropped, and so is a suspicion's value: the detection delay is
    a global-time fact the suspecting process cannot read."""
    value = None if event.kind == "suspect" else event.value
    return (event.kind, event.round, event.pid, event.peer, value)


def local_view(
    events: Sequence[Event],
    pid: int,
    *,
    upto: int | None = None,
    inputs: Sequence[Any] | None = None,
) -> tuple[tuple[int, Any, tuple[tuple[Any, ...], ...]], ...]:
    """What process ``pid`` knows of the run: its causal past.

    Built from ``pid``'s events before trace index ``upto`` (all of
    them by default): the union of their causal pasts
    (:func:`repro.obs.causal.annotate`), as one chain per process,
    ordered by process.  Each chain keeps its :data:`VIEW_KINDS`
    events as ``(kind, round, pid, peer, value)``.  With ``inputs``,
    the chain of process ``j`` also carries ``inputs[j]``; without,
    that slot is ``None``.

    Returns ``((j, input_j, chain_j), ...)``, hashable whenever the
    decision values and inputs are.  Two runs are indistinguishable to
    ``pid`` exactly when its views are equal; ``upto`` = the index of
    ``pid``'s first ``decide`` compares what it knew when it decided.
    """
    return tuple(
        (
            j,
            None if inputs is None else inputs[j],
            tuple(_observed(events[index]) for index in chain),
        )
        for j, chain in _view_chains(events, pid, upto).items()
    )


def view_divergence(
    a: Sequence[Event], b: Sequence[Event], pid: int
) -> Divergence | None:
    """First divergence in ``pid``'s :func:`local_view` of two traces.

    Chains are compared process by process; the reported position is
    within the first diverging chain, the indices point into the full
    traces.
    """
    chains_a = _view_chains(a, pid, None)
    chains_b = _view_chains(b, pid, None)
    for j in sorted(chains_a.keys() | chains_b.keys()):
        lane_a = chains_a.get(j, [])
        lane_b = chains_b.get(j, [])
        divergence = _divergence(
            [a[index] for index in lane_a],
            [b[index] for index in lane_b],
            _observed,
            lane_a,
            lane_b,
        )
        if divergence is not None:
            return divergence
    return None
