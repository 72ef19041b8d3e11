"""Plan kernels: the supported algorithms with their values erased.

The observation that makes whole-batch execution possible: for the four
supported algorithms (FloodSet, FloodSetWS, F_OptFloodSet[WS], A1) the
*control flow* of a run — who sends in which round, who decides when,
who halts, when the run goes quiescent — depends only on the failure
scenario, never on the initial values.  Messages are always either a
full broadcast or silence, decisions fire on reception *counts* and
*sender identities* (the ``n - t`` fast path, forced ``(D, v)``
adoption, A1's reports), and the value only selects *what* is decided.

Each kernel is therefore an ordinary
:class:`~repro.rounds.algorithm.RoundAlgorithm` — the round executor
runs it like any other — that mirrors one object algorithm's
``msgs``/``trans`` branch for branch over a :class:`PlanState`:

* the message payload is the sender's *decided-at-send* flag, which is
  all a receiver ever inspects (F_Opt's ``(D, v)`` tag, A1's report);
* instead of a value set ``W`` the state records, per completed round,
  the senders whose ``W`` the process unions in (the value kernel's
  batched ``W[j] |= W[i]`` ops);
* the decision is a *source*: ``("min", pid)`` for ``min(W)`` after
  this round's unions, ``("adopt", src)`` for adopting ``src``'s
  earlier decision (F_Opt's forced ``(D, v)``), ``("value", src)`` for
  deciding ``src``'s initial value verbatim (A1).

The kernels are validated against the object algorithms — the same
transition tables :mod:`repro.runtime.registry` serves to the round
executor and both emulations — by the byte-parity differential goldens.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from repro.rounds.algorithm import RoundAlgorithm, broadcast

#: Decision sources the value kernel understands.
DECIDE_MIN = "min"
DECIDE_ADOPT = "adopt"
DECIDE_VALUE = "value"


class PlanState(NamedTuple):
    """Value-free per-process state shared by every plan kernel."""

    n: int
    t: int
    rounds: int = 0
    #: Decision source ``(op, src)``; ``None`` until decided.
    decision: tuple[str, int] | None = None
    halt: frozenset[int] = frozenset()
    #: Per completed round, the senders whose ``W`` was unioned in.
    unions: tuple[tuple[int, ...], ...] = ()


class PlanKernel(RoundAlgorithm):
    """What the three kernels share.  ``kind`` names the value kernel a
    plan needs: ``"set"`` tracks ``W`` bitmasks (decisions are
    ``min(W)`` reads), ``"pick"`` needs none."""

    kind = "set"

    def initial_state(self, pid: int, n: int, t: int, value: object) -> PlanState:
        return PlanState(n, t)

    def decision_of(self, state: PlanState) -> tuple[str, int] | None:
        return state.decision


class FloodKernel(PlanKernel):
    """FloodSet (Figure 1) / FloodSetWS (Figure 2) with values erased."""

    name = "FloodSet-plan"

    def __init__(self, *, ws: bool) -> None:
        self.ws = ws

    def messages(self, pid: int, state: PlanState) -> Mapping[int, bool]:
        if state.rounds <= state.t:
            return broadcast(state.decision is not None, state.n)
        return {}

    def _halt_after(
        self, state: PlanState, received: Mapping[int, bool]
    ) -> frozenset[int]:
        """The WS variants' bookkeeping: whoever failed to deliver this
        round joins ``halt``.  Without it ``halt`` stays empty."""
        if not self.ws:
            return state.halt
        return state.halt | {q for q in range(state.n) if q not in received}

    def transition(
        self, pid: int, state: PlanState, received: Mapping[int, bool]
    ) -> PlanState:
        rounds = state.rounds + 1
        unions = tuple(i for i in received if i not in state.halt)
        decision = state.decision
        if rounds == state.t + 1 and decision is None:
            decision = (DECIDE_MIN, pid)
        return state._replace(
            rounds=rounds,
            decision=decision,
            halt=self._halt_after(state, received),
            unions=state.unions + (unions,),
        )


class FOptKernel(FloodKernel):
    """F_OptFloodSet / F_OptFloodSetWS (Figure 3) with values erased.

    Sends like FloodSet — a decided process keeps flooding, its
    ``(D, v)`` notification being a message whose flag is set.  The
    round-1 fast path fires on the *raw* reception count reaching
    ``n - t``; adopting a forced ``(D, v)`` skips this round's plain
    unions — exactly the object transition's branch chain.
    """

    name = "F_OptFloodSet-plan"

    def transition(
        self, pid: int, state: PlanState, received: Mapping[int, bool]
    ) -> PlanState:
        rounds = state.rounds + 1
        usable = [i for i in received if i not in state.halt]
        forced = [i for i in usable if received[i]]
        plain = tuple(i for i in usable if not received[i])
        unions: tuple[int, ...] = ()
        decision = state.decision
        if (
            rounds == 1
            and len(received) == state.n - state.t
            and decision is None
        ):
            unions = plain
            decision = (DECIDE_MIN, pid)
        elif forced and decision is None:
            decision = (DECIDE_ADOPT, forced[0])
        else:
            unions = plain
        if rounds == state.t + 1 and decision is None:
            decision = (DECIDE_MIN, pid)
        return state._replace(
            rounds=rounds,
            decision=decision,
            halt=self._halt_after(state, received),
            unions=state.unions + (unions,),
        )

    def halted(self, pid: int, state: PlanState) -> bool:
        if state.decision is None:
            return False
        return state.rounds >= 2 or state.rounds > state.t


class A1Kernel(PlanKernel):
    """A1 (Figure 4) with values erased.

    ``kind = "pick"``: every decision is some process's initial value
    verbatim — ``v1`` through p1's broadcast or a round-2 report (whose
    working value is necessarily ``v1``), else ``v2`` — so the value
    kernel needs no ``W`` sets at all.

    The ``t = 1`` / ``n >= 2`` configuration guards live in the object
    algorithm's ``initial_state``; :func:`plan_kernel_for` refuses
    other configurations so the object engine raises its exact errors.
    """

    kind = "pick"
    name = "A1-plan"

    def messages(self, pid: int, state: PlanState) -> Mapping[int, bool]:
        if state.rounds == 0:
            sends = pid == 0
        else:
            sends = state.rounds == 1 and (state.decision is not None or pid == 1)
        return broadcast(state.decision is not None, state.n) if sends else {}

    def transition(
        self, pid: int, state: PlanState, received: Mapping[int, bool]
    ) -> PlanState:
        rounds = state.rounds + 1
        decision = state.decision
        if rounds == 1:
            if 0 in received:
                decision = (DECIDE_VALUE, 0)
        elif rounds == 2 and decision is None:
            # A report's working value is v1: its sender decided in
            # round 1, which only happens by receiving p1's broadcast.
            if any(received.values()):
                decision = (DECIDE_VALUE, 0)
            elif 1 in received:
                decision = (DECIDE_VALUE, 1)
        return state._replace(
            rounds=rounds, decision=decision, unions=state.unions + ((),)
        )

    def halted(self, pid: int, state: PlanState) -> bool:
        # Round-1 deciders still owe their round-2 report.
        return state.rounds >= 2


#: Algorithm registry key -> plan-kernel factory.  The vectorizable
#: subset of :data:`repro.runtime.registry.ALGORITHM_FACTORIES`;
#: everything else transparently falls back to the object engine.
PLAN_KERNELS: dict[str, Callable[[], PlanKernel]] = {
    "floodset": lambda: FloodKernel(ws=False),
    "floodset-ws": lambda: FloodKernel(ws=True),
    "f-opt": lambda: FOptKernel(ws=False),
    "f-opt-ws": lambda: FOptKernel(ws=True),
    "a1": A1Kernel,
}


def plan_kernel_for(algorithm: str, n: int, t: int) -> PlanKernel | None:
    """``algorithm``'s plan kernel, or ``None`` when it has none or the
    kernel refuses the ``(n, t)`` configuration."""
    factory = PLAN_KERNELS.get(algorithm)
    if factory is None or (algorithm == "a1" and (t != 1 or n < 2)):
        return None
    return factory()
