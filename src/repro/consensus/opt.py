"""C_OptFloodSet and C_OptFloodSetWS (Section 5.2, unanimity fast path).

Because of the validity condition, "any process that receives ``n``
messages with the same value ``v`` at round 1 could safely decide ``v``
at the end of round 1": receiving ``n`` identical values means *every*
process proposed ``v`` (each round-1 message is a singleton initial
value), so every possible decision is ``v`` anyway.  The optimisation
witnesses ``lat(C_OptFloodSet) = lat(C_OptFloodSetWS) = 1`` — the
*minimal* latency degree over all runs is achieved by the failure-free
unanimous runs — and shows why ``lat`` alone is too coarse a measure to
separate RS from RWS.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.consensus.floodset import (
    FloodSet,
    FloodSetState,
    FloodSetWS,
    FloodSetWSState,
)


def _unanimous_value(received: Mapping[int, Any], n: int) -> Any:
    """Return ``v`` if all ``n`` round-1 messages carry exactly ``{v}``."""
    if len(received) != n:
        return None
    union: frozenset = frozenset()
    for payload in received.values():
        union = union | payload
    if len(union) == 1:
        return next(iter(union))
    return None


class COptFloodSet(FloodSet):
    """FloodSet with the round-1 unanimity decision rule."""

    name = "C_OptFloodSet"

    def transition(
        self, pid: int, state: FloodSetState, received: Mapping[int, Any]
    ) -> FloodSetState:
        new_state = super().transition(pid, state, received)
        if new_state.rounds == 1 and new_state.decision is None:
            value = _unanimous_value(received, state.n)
            if value is not None:
                new_state = FloodSetState(
                    new_state.rounds, new_state.W, value, state.n, state.t
                )
        return new_state


class COptFloodSetWS(FloodSetWS):
    """FloodSetWS with the round-1 unanimity decision rule.

    The rule is safe in RWS for the same reason as in RS: ``n``
    delivered messages at round 1 means no message was pending and no
    process was initially dead, so the unanimity really covers all
    initial values.
    """

    name = "C_OptFloodSetWS"

    def transition(
        self, pid: int, state: FloodSetWSState, received: Mapping[int, Any]
    ) -> FloodSetWSState:
        new_state = super().transition(pid, state, received)
        if new_state.rounds == 1 and new_state.decision is None:
            value = _unanimous_value(received, state.n)
            if value is not None:
                new_state = FloodSetWSState(
                    new_state.rounds,
                    new_state.W,
                    new_state.halt,
                    value,
                    state.n,
                    state.t,
                )
        return new_state
