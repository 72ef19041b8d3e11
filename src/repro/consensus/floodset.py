"""FloodSet (Figure 1) and FloodSetWS (Figure 2).

FloodSet is the classical uniform consensus algorithm for synchronous
rounds: for ``t + 1`` rounds every process broadcasts the set ``W`` of
values it has ever seen and unions in what it receives; after round
``t + 1`` it decides ``min(W)``.  Among ``t + 1`` rounds at least one is
failure-free, so all ``W`` sets are equal by the decision round —
uniform agreement in RS.

In RWS the same code is **unsafe**: a pending message can smuggle a
value to *some* processes in the final round without the sender being
detectably dead, so two correct processes can decide different minima
(experiment E5 finds such scenarios mechanically).  FloodSetWS repairs
this with a ``halt`` set: a process that fails to deliver in round
``r`` is ignored from round ``r + 1`` on, which neutralises exactly the
pending-message anomaly (the sender of a pending message crashes by the
next round, so nothing is lost by ignoring it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.rounds.algorithm import RoundAlgorithm, broadcast


@dataclass(frozen=True)
class FloodSetState:
    """State of Figure 1: a round counter, the value set ``W``, and the
    decision slot (``unknown`` is modelled by ``None``)."""

    rounds: int
    W: frozenset
    decision: Any
    n: int
    t: int


class FloodSet(RoundAlgorithm):
    """Figure 1: broadcast ``W`` for ``t+1`` rounds, decide ``min(W)``."""

    name = "FloodSet"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> FloodSetState:
        return FloodSetState(
            rounds=0, W=frozenset({value}), decision=None, n=n, t=t
        )

    def messages(self, pid: int, state: FloodSetState) -> Mapping[int, Any]:
        if state.rounds <= state.t:
            return broadcast(state.W, state.n)
        return {}

    def transition(
        self, pid: int, state: FloodSetState, received: Mapping[int, Any]
    ) -> FloodSetState:
        rounds = state.rounds + 1
        W = state.W
        for payload in received.values():
            W = W | payload
        decision = state.decision
        if rounds == state.t + 1 and decision is None:
            decision = min(W)
        # Positionally, not dataclasses.replace: a transition runs once
        # per process per round, replace walks fields() on every call.
        return FloodSetState(rounds, W, decision, state.n, state.t)

    def decision_of(self, state: FloodSetState) -> Any:
        return state.decision


@dataclass(frozen=True)
class FloodSetWSState:
    """State of Figure 2: FloodSet plus the ``halt`` set of processes
    whose future messages are ignored."""

    rounds: int
    W: frozenset
    halt: frozenset
    decision: Any
    n: int
    t: int


class FloodSetWS(RoundAlgorithm):
    """Figure 2: FloodSet with the ``halt`` guard, safe in RWS.

    The one-line difference from Figure 1: values received from
    processes already in ``halt`` are discarded, and any process from
    which no message arrived this round joins ``halt``.
    """

    name = "FloodSetWS"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> FloodSetWSState:
        return FloodSetWSState(
            rounds=0,
            W=frozenset({value}),
            halt=frozenset(),
            decision=None,
            n=n,
            t=t,
        )

    def messages(self, pid: int, state: FloodSetWSState) -> Mapping[int, Any]:
        if state.rounds <= state.t:
            return broadcast(state.W, state.n)
        return {}

    def transition(
        self, pid: int, state: FloodSetWSState, received: Mapping[int, Any]
    ) -> FloodSetWSState:
        rounds = state.rounds + 1
        W = state.W
        for sender, payload in received.items():
            if sender not in state.halt:
                W = W | payload
        halt = state.halt | frozenset(
            q for q in range(state.n) if q not in received
        )
        decision = state.decision
        if rounds == state.t + 1 and decision is None:
            decision = min(W)
        return FloodSetWSState(rounds, W, halt, decision, state.n, state.t)

    def decision_of(self, state: FloodSetWSState) -> Any:
        return state.decision
