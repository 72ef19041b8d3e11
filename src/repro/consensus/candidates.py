"""Round-1-deciding candidate algorithms for the RWS lower bound.

The companion-paper result quoted in Section 5.3 states that for
``n >= 3`` *no* uniform consensus algorithm in RWS can have all correct
processes decide at round 1 of every failure-free run — hence
``Λ >= 2`` in RWS while ``Λ(A1) = 1`` in RS.

An impossibility cannot be executed, but its *shape* can: every natural
algorithm with the round-1 property must be defeated by some
weak-round-synchrony scenario.  This module collects such candidates;
:func:`repro.analysis.lowerbound.refute_round_one_decision` exhibits a concrete
counterexample run for each (experiment E10).  ``A1`` itself is the
first candidate; the others harden it in the obvious ways (halting on
silent processes, symmetric min-based decisions) and fail anyway —
illustrating the paper's remark that "modifications such as the one
used to transform FloodSet into FloodSetWS do not preclude such
disagreement".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.consensus.a1 import REPORT_TAG, A1, A1State
from repro.rounds.algorithm import RoundAlgorithm, broadcast


@dataclass(frozen=True)
class A1HaltState(A1State):
    """A1 state plus the halt flag for p1's round-2 messages."""

    ignore_p1: bool = False


class A1Halt(A1):
    """A1 with the FloodSetWS-style fix: ignore p1 after silence.

    If no round-1 message arrived from ``p1``, its (relayed) value is
    ignored in round 2.  The disagreement scenario survives: ``p1``
    decides on its own pending broadcast and crashes; no relay exists
    to ignore, and the survivors still decide ``v2``.
    """

    name = "A1+halt"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> A1HaltState:
        base = super().initial_state(pid, n, t, value)
        return A1HaltState(
            rounds=base.rounds,
            w=base.w,
            decided=base.decided,
            decision=base.decision,
            n=base.n,
            ignore_p1=False,
        )

    def transition(
        self, pid: int, state: A1HaltState, received: Mapping[int, Any]
    ) -> A1HaltState:
        if state.rounds == 0 and 0 not in received:
            # p1 was silent in round 1: drop its own future messages
            # (relays from third parties are kept — dropping those too
            # breaks termination, not safety).
            state = replace(state, ignore_p1=True)
        if state.ignore_p1:
            received = {
                sender: payload
                for sender, payload in received.items()
                if sender != 0
            }
        base = super().transition(pid, state, received)
        return replace(state, rounds=base.rounds, w=base.w,
                       decided=base.decided, decision=base.decision)

    def decision_of(self, state: A1HaltState) -> Any:
        return state.decision


@dataclass(frozen=True)
class MinRoundOneState:
    """State of the symmetric round-1 candidate."""

    rounds: int
    value: Any
    decision: Any
    n: int


class MinRoundOne(RoundAlgorithm):
    """Everyone broadcasts; decide the minimum received at round 1.

    The fully symmetric round-1 candidate.  In a failure-free run every
    process receives all ``n`` values and decides ``min`` at round 1.
    Deciders report ``(D, v)`` at round 2 and laggards adopt.  Both RS
    (partial broadcast) and RWS (pending messages) defeat it.
    """

    name = "MinRound1"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> MinRoundOneState:
        return MinRoundOneState(rounds=0, value=value, decision=None, n=n)

    def messages(self, pid: int, state: MinRoundOneState) -> Mapping[int, Any]:
        if state.rounds == 0:
            return broadcast(("value", state.value), state.n)
        if state.rounds == 1 and state.decision is not None:
            return broadcast((REPORT_TAG, state.decision), state.n)
        if state.rounds == 1:
            return broadcast(("value", state.value), state.n)
        return {}

    def transition(
        self, pid: int, state: MinRoundOneState, received: Mapping[int, Any]
    ) -> MinRoundOneState:
        rounds = state.rounds + 1
        decision = state.decision
        if rounds == 1 and received:
            decision = min(payload[1] for payload in received.values())
        elif rounds == 2 and decision is None:
            reports = [
                payload[1]
                for payload in received.values()
                if payload[0] == REPORT_TAG
            ]
            if reports:
                decision = min(reports)
            elif received:
                decision = min(payload[1] for payload in received.values())
        return replace(state, rounds=rounds, decision=decision)

    def decision_of(self, state: MinRoundOneState) -> Any:
        return state.decision

    def halted(self, pid: int, state: MinRoundOneState) -> bool:
        return state.rounds >= 2


class LeaderOrOwn(RoundAlgorithm):
    """Decide p1's value if heard at round 1, else your own at round 2.

    A deliberately naive candidate: it has the round-1 property in
    failure-free runs (everyone hears ``p1``) but splits decisions as
    soon as ``p1``'s broadcast is partial or pending.
    """

    name = "LeaderOrOwn"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> MinRoundOneState:
        return MinRoundOneState(rounds=0, value=value, decision=None, n=n)

    def messages(self, pid: int, state: MinRoundOneState) -> Mapping[int, Any]:
        if state.rounds == 0 and pid == 0:
            return broadcast(("value", state.value), state.n)
        return {}

    def transition(
        self, pid: int, state: MinRoundOneState, received: Mapping[int, Any]
    ) -> MinRoundOneState:
        rounds = state.rounds + 1
        decision = state.decision
        if rounds == 1 and 0 in received:
            decision = received[0][1]
        elif rounds == 2 and decision is None:
            decision = state.value
        return replace(state, rounds=rounds, decision=decision)

    def decision_of(self, state: MinRoundOneState) -> Any:
        return state.decision

    def halted(self, pid: int, state: MinRoundOneState) -> bool:
        return state.rounds >= 2


#: The candidate pool surveyed by experiment E10.
ROUND_ONE_CANDIDATES: tuple[RoundAlgorithm, ...] = (
    A1(),
    A1Halt(),
    MinRoundOne(),
    LeaderOrOwn(),
)
