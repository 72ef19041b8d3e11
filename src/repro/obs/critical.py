"""Critical-path extraction and suspicion forensics.

Built on :mod:`repro.obs.causal`'s happens-before DAG:

* :func:`critical_paths` — per ``decide``, the longest causal chain
  (counted in message hops) from the run's start to the decision.  In
  the round models the executor records every process's self-delivery,
  so the hop count of a decision equals its decide round — which is
  exactly the paper's round-counting latency measure, and Λ on the
  failure-free run (``Λ(A1)=1``, ``Λ(FloodSet/RWS)≥2``; see
  ``analysis/latency.py``).
* :func:`suspicion_forensics` — per ``suspect``, whether a crash of
  the suspected process in the trace justifies the suspicion.
* :func:`verify_round_paths` — the Λ-bound anomaly check the report
  layer runs per cell: in any round-model trace, every decision's
  critical-path length is bounded by its decide round (with equality
  for flooding algorithms; A1 decides at depth Λ(A1)=1 regardless).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.causal import CausalGraph, annotate
from repro.obs.events import Event, clock_kind
from repro.obs.profile import profiled


@dataclass
class DecisionPath:
    """The critical path behind one ``decide`` event."""

    pid: int
    value: Any
    round: int | None
    index: int  # the decide event's trace index
    length: int  # message hops on the longest causal chain
    nodes: list[int] = field(default_factory=list)  # chain, trace order

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "value": self.value,
            "round": self.round,
            "length": self.length,
            "nodes": list(self.nodes),
        }


def _message_depths(graph: CausalGraph) -> tuple[list[int], list[int | None]]:
    """Longest-chain DP: message-hop depth and argmax parent per node."""
    depth: list[int] = []
    best: list[int | None] = []
    for index in range(len(graph.events)):
        node_depth, node_best = 0, None
        for edge in graph.parents[index]:
            weight = 1 if edge.kind == "message" else 0
            candidate = depth[edge.src] + weight
            if candidate > node_depth or node_best is None:
                node_depth, node_best = candidate, edge.src
        depth.append(node_depth)
        best.append(node_best)
    return depth, best


def critical_paths(
    events: Sequence[Event], *, graph: CausalGraph | None = None
) -> list[DecisionPath]:
    """Extract the critical path of every decision in a trace."""
    with profiled("obs.causal.critical"):
        if graph is None:
            graph = annotate(events)
        depth, best = _message_depths(graph)
        paths: list[DecisionPath] = []
        for index in graph.decide_indices():
            event = events[index]
            nodes: list[int] = []
            cursor: int | None = index
            while cursor is not None:
                nodes.append(cursor)
                cursor = best[cursor]
            nodes.reverse()
            paths.append(
                DecisionPath(
                    pid=event.pid,
                    value=event.value,
                    round=event.round,
                    index=index,
                    length=depth[index],
                    nodes=nodes,
                )
            )
        return paths


# -- suspicion forensics -----------------------------------------------------


@dataclass
class SuspicionReport:
    """Why one ``suspect`` event fired, against the ground truth."""

    observer: int
    suspected: int
    index: int
    delay: Any = None  # engine-reported suspicion latency
    justified: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            key: value
            for key, value in self.__dict__.items()
            if value is not None or key in ("observer", "suspected", "justified")
        }


def suspicion_forensics(events: Sequence[Event]) -> list[SuspicionReport]:
    """Audit every suspicion in a trace.

    ``justified`` means the suspected process's crash is in the trace:
    P's strong accuracy makes any in-trace crash ground truth for the
    suspicion.
    """
    crashed = {
        event.pid
        for event in events
        if event.kind == "crash" and event.pid is not None
    }
    return [
        SuspicionReport(
            observer=event.pid,
            suspected=event.peer,
            index=index,
            delay=event.value,
            justified=event.peer in crashed,
        )
        for index, event in enumerate(events)
        if event.kind == "suspect"
    ]


# -- Λ-bound verification ----------------------------------------------------


def is_round_trace(events: Sequence[Event]) -> bool:
    """True for traces of the round models."""
    return any(event.kind == "round_start" for event in events)


def verify_round_paths(
    events: Sequence[Event], *, graph: CausalGraph | None = None
) -> list[str]:
    """Check every decision's critical path against the round count.

    In the round models sends precede deliveries within each round, so
    no causal chain can cross two message hops in one round: a decision
    at round ``r`` sits at depth at most ``r``.  Algorithms that
    message every round (the flooding family) meet the bound with
    equality — their depth *is* the decide round, the paper's Λ count —
    while one-shot algorithms like A1 decide at depth Λ(A1)=1 even when
    the decide formally lands in a later round (the extra rounds add no
    causal work).  A depth *exceeding* the decide round means the
    happens-before reconstruction or the trace itself is broken.
    Returns human-readable anomalies (empty when clean).  Non-round
    traces (step kernel, emulation lifts) are skipped: their depths
    count SP/SS steps, not rounds.
    """
    if not is_round_trace(events):
        return []
    problems: list[str] = []
    for path in critical_paths(events, graph=graph):
        if path.round is not None and path.length > path.round:
            problems.append(
                f"p{path.pid} decided at round {path.round} but its "
                f"critical path has {path.length} message hops"
            )
    return problems


# -- one-call cell summary ---------------------------------------------------


def causal_summary(
    events: Sequence[Event], *, graph: CausalGraph | None = None
) -> dict[str, Any]:
    """The causal facts of one trace, JSON-ready.

    The per-cell block ``repro causal`` prints and the report layer
    embeds: clock kind, graph size, every decision's critical path,
    Λ-bound anomalies and suspicion audits.
    """
    if graph is None:
        graph = annotate(events)
    paths = critical_paths(events, graph=graph)
    return {
        "clock": clock_kind(events),
        "events": len(events),
        "message_edges": sum(
            1
            for edges in graph.parents
            for edge in edges
            if edge.kind == "message"
        ),
        "decisions": [path.to_dict() for path in paths],
        "max_path_length": max((path.length for path in paths), default=0),
        "anomalies": verify_round_paths(events, graph=graph),
        "suspicions": [
            report.to_dict() for report in suspicion_forensics(events)
        ],
    }
