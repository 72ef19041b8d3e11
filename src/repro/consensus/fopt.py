"""F_OptFloodSet (Figure 3) and F_OptFloodSetWS (failure fast path).

If a process receives exactly ``n - t`` messages at round 1, then all
``t`` allowed failures have already happened (every missing sender is
necessarily faulty), so the receiver knows the exact set of correct
processes and can decide immediately — *provided* it notifies its
decision at round 2 so the decision is forced on everyone else.

This witnesses ``Lat(F_OptFloodSet) = Lat(F_OptFloodSetWS) = 1``: for
*every* initial configuration there is a run — the one where ``t``
processes are initially dead — whose latency degree is 1.  As the paper
notes, this "contradicts a widespread idea that minimal latency degree
is typically obtained with failure free runs".

The decided/undecided message split follows Figure 3 exactly: an
undecided process floods ``W``; a decided one floods ``(D, decision)``,
and any process seeing a ``(D, v)`` adopts ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.rounds.algorithm import RoundAlgorithm, broadcast

#: Tag distinguishing a forced-decision message from a plain ``W`` flood.
DECIDED_TAG = "D"


@dataclass(frozen=True)
class FOptState:
    """State of Figure 3: FloodSet plus the ``decided`` flag."""

    rounds: int
    W: frozenset
    decided: bool
    decision: Any
    n: int
    t: int


class FOptFloodSet(RoundAlgorithm):
    """Figure 3: FloodSet with the ``n - t`` round-1 fast path (RS)."""

    name = "F_OptFloodSet"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> FOptState:
        return FOptState(
            rounds=0,
            W=frozenset({value}),
            decided=False,
            decision=None,
            n=n,
            t=t,
        )

    def messages(self, pid: int, state: FOptState) -> Mapping[int, Any]:
        if state.rounds > state.t:
            return {}
        if state.decided:
            return broadcast((DECIDED_TAG, state.decision), state.n)
        return broadcast(state.W, state.n)

    def _filtered(self, state: FOptState, received: Mapping[int, Any]) -> Mapping[int, Any]:
        """Hook for the WS variant's ``halt`` filtering; identity in RS."""
        return received

    def transition(
        self, pid: int, state: FOptState, received: Mapping[int, Any]
    ) -> FOptState:
        rounds = state.rounds + 1
        usable = self._filtered(state, received)
        W = state.W
        decided = state.decided
        decision = state.decision

        forced = [
            payload[1]
            for payload in usable.values()
            if isinstance(payload, tuple) and payload[0] == DECIDED_TAG
        ]
        plain = {
            sender: payload
            for sender, payload in usable.items()
            if not (isinstance(payload, tuple) and payload[0] == DECIDED_TAG)
        }

        if rounds == 1 and len(received) == state.n - state.t and not decided:
            for payload in plain.values():
                W = W | payload
            decision = min(W)
            decided = True
        elif forced and not decided:
            decision = forced[0]
            decided = True
        else:
            for payload in plain.values():
                W = W | payload

        if rounds == state.t + 1 and not decided:
            decision = min(W)
            decided = True

        return self._next_state(state, rounds, W, decided, decision, received)

    def _next_state(
        self,
        state: FOptState,
        rounds: int,
        W: frozenset,
        decided: bool,
        decision: Any,
        received: Mapping[int, Any],
    ) -> FOptState:
        """Hook for the WS variant's ``halt`` bookkeeping.  Built
        positionally: ``dataclasses.replace`` walks ``fields()`` on
        every call, and a transition runs per process per round."""
        return FOptState(rounds, W, decided, decision, state.n, state.t)

    def decision_of(self, state: FOptState) -> Any:
        return state.decision

    def halted(self, pid: int, state: FOptState) -> bool:
        # A fast decider must keep running one more round to force its
        # decision on the others; it is quiescent only once its rounds
        # counter has passed the last sending round or everyone it could
        # inform has been informed.  Conservatively: halted when decided
        # and at least two rounds have elapsed, or all t+1 rounds ran.
        if not state.decided:
            return False
        return state.rounds >= 2 or state.rounds > state.t


@dataclass(frozen=True)
class FOptWSState(FOptState):
    """F_OptFloodSetWS state: Figure 3 plus FloodSetWS's ``halt`` set."""

    halt: frozenset = frozenset()


class FOptFloodSetWS(FOptFloodSet):
    """F_OptFloodSetWS: the Figure 3 fast path hardened for RWS.

    Safety of the fast path in RWS: a sender missing from a round-1
    reception is either initially dead or the sender of a pending
    message, and in both cases is faulty.  Seeing exactly ``n - t``
    senders therefore still identifies the missing ``t`` as the precise
    set of faulty processes.  The ``halt`` guard handles the late
    messages those faulty processes may still deliver.
    """

    name = "F_OptFloodSetWS"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> FOptWSState:
        return FOptWSState(
            rounds=0,
            W=frozenset({value}),
            decided=False,
            decision=None,
            n=n,
            t=t,
            halt=frozenset(),
        )

    def _filtered(self, state: FOptWSState, received: Mapping[int, Any]) -> Mapping[int, Any]:
        return {
            sender: payload
            for sender, payload in received.items()
            if sender not in state.halt
        }

    def _next_state(
        self,
        state: FOptWSState,
        rounds: int,
        W: frozenset,
        decided: bool,
        decision: Any,
        received: Mapping[int, Any],
    ) -> FOptWSState:
        halt = state.halt | frozenset(
            q for q in range(state.n) if q not in received
        )
        return FOptWSState(rounds, W, decided, decision, state.n, state.t, halt)
