"""Atomic broadcast as a sequence of FloodSet consensus instances."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.rounds.algorithm import RoundAlgorithm, broadcast


def _batch_key(batch: frozenset) -> tuple:
    """A deterministic total order on batches (sets of messages)."""
    return tuple(sorted(batch, key=repr))


@dataclass(frozen=True)
class BroadcastState:
    """State of the atomic-broadcast machine.

    Attributes:
        rounds: Total rounds executed.
        instance: Current consensus instance, 1-based.
        proposals: The inner FloodSet's ``W``: every *batch* seen this
            instance (each batch is one process's proposal).
        known: Every application message this process has learned of.
        delivered: The delivery sequence so far (a tuple — order is the
            whole point of *atomic* broadcast).
        halt: Senders to ignore (used by the WS variant; empty in RS).
        finished: All instances completed.
        n: Number of processes.
        t: Resilience bound; each instance runs ``t + 1`` rounds.
        instances: Total number of instances to run.
    """

    rounds: int
    instance: int
    proposals: frozenset
    known: frozenset
    delivered: tuple
    halt: frozenset
    finished: bool
    n: int
    t: int
    instances: int


class AtomicBroadcast(RoundAlgorithm):
    """Uniform atomic broadcast for RS via repeated FloodSet instances.

    Each process's initial value is an iterable of application messages
    it wants to broadcast (messages must be hashable and globally
    unique — tag them with their origin, e.g. ``("p0", 0)``).  Instance
    ``k`` occupies rounds ``(k-1)(t+1)+1 .. k(t+1)``: processes flood
    the set of proposals (batches) they have seen, and at the
    instance's last round deliver the minimal batch under a fixed total
    order, restricted to not-yet-delivered messages.  Messages learned
    from other processes' proposals join the next instance's proposal.

    Two instances suffice to deliver every message broadcast at the
    start by a correct process: its instance-1 floods plant the message
    in everyone's ``known`` set, so every instance-2 proposal — and
    hence the instance-2 decision, which is one of them — contains it.
    """

    name = "AtomicBroadcast"

    #: Whether the FloodSetWS halt guard filters late senders.
    use_halt = False

    def __init__(self, instances: int = 2) -> None:
        if instances < 1:
            raise ConfigurationError("need at least one instance")
        self.instances = instances

    def initial_state(
        self, pid: int, n: int, t: int, value: Iterable[Any]
    ) -> BroadcastState:
        own = frozenset(value)
        return BroadcastState(
            rounds=0,
            instance=1,
            proposals=frozenset({own}),
            known=own,
            delivered=(),
            halt=frozenset(),
            finished=False,
            n=n,
            t=t,
            instances=self.instances,
        )

    def messages(self, pid: int, state: BroadcastState) -> Mapping[int, Any]:
        if state.finished:
            return {}
        return broadcast(state.proposals, state.n)

    def transition(
        self, pid: int, state: BroadcastState, received: Mapping[int, Any]
    ) -> BroadcastState:
        if state.finished:
            return replace(state, rounds=state.rounds + 1)
        rounds = state.rounds + 1
        proposals = state.proposals
        known = state.known
        for sender, batches in received.items():
            if self.use_halt and sender in state.halt:
                continue
            proposals = proposals | batches
            for batch in batches:
                known = known | batch
        halt = state.halt
        if self.use_halt:
            halt = halt | frozenset(
                q for q in range(state.n) if q not in received
            )

        delivered = state.delivered
        instance = state.instance
        finished = state.finished
        if rounds == instance * (state.t + 1):
            # Instance boundary: decide and deliver the minimal batch.
            decided = min(proposals, key=_batch_key)
            fresh = [
                message
                for message in sorted(decided, key=repr)
                if message not in delivered
            ]
            delivered = delivered + tuple(fresh)
            instance += 1
            if instance > state.instances:
                finished = True
            else:
                leftover = frozenset(
                    message for message in known if message not in delivered
                )
                proposals = frozenset({leftover})
        return replace(
            state,
            rounds=rounds,
            instance=instance,
            proposals=proposals,
            known=known,
            delivered=delivered,
            halt=halt,
            finished=finished,
        )

    def decision_of(self, state: BroadcastState) -> Any:
        """The final delivery sequence, once all instances completed.

        Exposed as the run's "decision" so the round executor's
        bookkeeping (decision rounds, latency) applies unchanged.
        """
        return state.delivered if state.finished else None

    def halted(self, pid: int, state: BroadcastState) -> bool:
        return state.finished


class AtomicBroadcastWS(AtomicBroadcast):
    """Atomic broadcast hardened for RWS with the halt guard.

    Exactly FloodSetWS's repair lifted to batches: a sender that failed
    to deliver once is ignored from then on, which neutralises pending
    batches the same way it neutralises pending values.
    """

    name = "AtomicBroadcastWS"
    use_halt = True
