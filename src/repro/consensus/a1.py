"""The A1 algorithm (Figure 4): uniform consensus in RS with Λ = 1.

A1 tolerates a single crash (``t = 1``) and runs in (at most) two
rounds:

* Round 1 — ``p1`` broadcasts its initial value ``v1``; every process
  that receives ``v1`` decides it immediately.
* Round 2 — deciders report ``(p1, v1)`` to all; if ``p1`` crashed
  before reaching anyone, ``p2`` broadcasts its own value ``v2`` and
  everyone (except the dead ``p1``) decides ``v2``.

Every failure-free run decides at round 1, hence ``Λ(A1) = 1`` in RS —
strictly better than any RWS algorithm, for which ``Λ >= 2``
(experiments E8–E10).  In RWS the very same code is *not uniform*:
``p1`` may broadcast, decide ``v1`` on its own message, and crash while
all its messages are pending; the survivors then decide ``v2``.

Process indexing: the paper's ``p1`` is pid 0 and ``p2`` is pid 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.rounds.algorithm import RoundAlgorithm, broadcast

#: Tag of the round-2 "p1 decided v" report message.
REPORT_TAG = "p1-report"


@dataclass(frozen=True)
class A1State:
    """State of Figure 4: round counter, working value ``w``, decision."""

    rounds: int
    w: Any
    decided: bool
    decision: Any
    n: int


class A1(RoundAlgorithm):
    """Figure 4: two-round uniform consensus for RS, t = 1."""

    name = "A1"

    def initial_state(self, pid: int, n: int, t: int, value: Any) -> A1State:
        if t != 1:
            raise ConfigurationError(
                f"A1 tolerates exactly one crash; got t={t}"
            )
        if n < 2:
            raise ConfigurationError("A1 needs at least two processes")
        return A1State(rounds=0, w=value, decided=False, decision=None, n=n)

    def messages(self, pid: int, state: A1State) -> Mapping[int, Any]:
        if state.rounds == 0:  # round 1
            if pid == 0:
                return broadcast(("value", state.w), state.n)
            return {}
        if state.rounds == 1:  # round 2
            if state.decided:
                return broadcast((REPORT_TAG, state.w), state.n)
            if pid == 1:
                return broadcast(("value", state.w), state.n)
            return {}
        return {}

    def transition(
        self, pid: int, state: A1State, received: Mapping[int, Any]
    ) -> A1State:
        rounds = state.rounds + 1
        w = state.w
        decided = state.decided
        decision = state.decision

        if rounds == 1:
            if 0 in received:
                _, v1 = received[0]
                w = v1
                decision = v1
                decided = True
        elif rounds == 2 and not decided:
            reports = [
                payload[1]
                for payload in received.values()
                if payload[0] == REPORT_TAG
            ]
            if reports:
                decision = reports[0]
                decided = True
            elif 1 in received:
                _, v2 = received[1]
                decision = v2
                decided = True

        return A1State(rounds, w, decided, decision, state.n)

    def decision_of(self, state: A1State) -> Any:
        return state.decision

    def halted(self, pid: int, state: A1State) -> bool:
        # Round-1 deciders still owe their round-2 report.
        return state.rounds >= 2
