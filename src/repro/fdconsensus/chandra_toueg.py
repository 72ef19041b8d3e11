"""The Chandra–Toueg ◊S rotating-coordinator consensus algorithm."""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.failures.detectors import EventuallyStrongDetector
from repro.failures.pattern import FailurePattern
from repro.simulation.automaton import StepAutomaton, StepContext, StepOutcome
from repro.simulation.executor import StepExecutor
from repro.simulation.run import Run
from repro.simulation.schedulers import RandomScheduler

# Message kinds.
ESTIMATE = "estimate"
PROPOSE = "propose"
ACK = "ack"
NACK = "nack"
DECIDE = "decide"

# Phases within an asynchronous round.
SEND_ESTIMATE = 1
COORDINATE = 2
AWAIT_PROPOSAL = 3
COLLECT_REPLIES = 4


@dataclass(frozen=True)
class CTState:
    """Per-process state of the rotating-coordinator algorithm.

    Attributes:
        round: Current asynchronous round (1-based).
        phase: Current phase within the round.
        estimate: The process's current estimate of the decision.
        ts: Round in which ``estimate`` was last adopted from a
            coordinator (0 = never; the initial value).
        decided: Whether an irrevocable decision was taken.
        decision: The decided value (``None`` until decided).
        outbox: Messages queued for sending, one per step.
        estimates: Per round: ``sender -> (estimate, ts)`` collected by
            a coordinator in phase 2.
        replies: Per round: ``sender -> True/False`` (ACK/NACK)
            collected by a coordinator in phase 4.
        proposals: Per round: the coordinator's proposed estimate, as
            observed by this process.
        relayed: Whether the DECIDE relay was already queued.
    """

    round: int = 1
    phase: int = SEND_ESTIMATE
    estimate: Any = None
    ts: int = 0
    decided: bool = False
    decision: Any = None
    outbox: tuple = ()
    estimates: Mapping[int, Mapping[int, tuple]] = field(default_factory=dict)
    replies: Mapping[int, Mapping[int, bool]] = field(default_factory=dict)
    proposals: Mapping[int, Any] = field(default_factory=dict)
    relayed: bool = False


class ChandraTouegConsensus(StepAutomaton):
    """◊S consensus on the asynchronous step kernel (n > 2t).

    One shared instance serves all processes; initial values come from
    the constructor.  Wait conditions ("collect a majority", "proposal
    or suspicion") are re-evaluated on every step, and the one-send-per-
    step discipline is respected through an outbox queue.
    """

    def __init__(self, n: int, t: int, values: Sequence[Any]) -> None:
        if n <= 2 * t:
            raise ConfigurationError(
                f"the rotating-coordinator algorithm needs n > 2t "
                f"(got n={n}, t={t})"
            )
        if len(values) != n:
            raise ConfigurationError("one initial value per process required")
        self.n = n
        self.t = t
        self.values = tuple(values)
        self.majority = n // 2 + 1

    # -- helpers ----------------------------------------------------------------

    def coordinator(self, round_index: int) -> int:
        return (round_index - 1) % self.n

    def initial_state(self, pid: int, n: int) -> CTState:
        return CTState(estimate=self.values[pid])

    @staticmethod
    def _queue(state: CTState, recipient: int, payload: tuple) -> CTState:
        return replace(state, outbox=state.outbox + ((recipient, payload),))

    def _queue_all(self, state: CTState, pid: int, payload: tuple) -> CTState:
        for recipient in range(self.n):
            if recipient != pid:
                state = self._queue(state, recipient, payload)
        return state

    def _decide(self, state: CTState, pid: int, value: Any) -> CTState:
        """Adopt a decision and queue the reliable-broadcast relay."""
        if state.decided:
            return state
        state = replace(
            state, decided=True, decision=value, estimate=value
        )
        if not state.relayed:
            state = self._queue_all(state, pid, (DECIDE, value))
            state = replace(state, relayed=True)
        return state

    # -- message ingestion --------------------------------------------------------

    def _ingest(self, state: CTState, ctx: StepContext) -> CTState:
        estimates = {r: dict(v) for r, v in state.estimates.items()}
        replies = {r: dict(v) for r, v in state.replies.items()}
        proposals = dict(state.proposals)
        for message in ctx.received:
            kind = message.payload[0]
            if kind == ESTIMATE:
                _, round_index, estimate, ts = message.payload
                estimates.setdefault(round_index, {})[message.sender] = (
                    estimate,
                    ts,
                )
            elif kind == PROPOSE:
                _, round_index, estimate = message.payload
                proposals[round_index] = estimate
            elif kind in (ACK, NACK):
                _, round_index = message.payload
                replies.setdefault(round_index, {})[message.sender] = (
                    kind == ACK
                )
            elif kind == DECIDE:
                _, value = message.payload
                state = self._decide(state, ctx.pid, value)
        return replace(
            state, estimates=estimates, replies=replies, proposals=proposals
        )

    # -- the step function ----------------------------------------------------------

    def on_step(self, ctx: StepContext) -> StepOutcome:
        state: CTState = self._ingest(ctx.state, ctx)

        # Drain the outbox first: one message per step.
        if state.outbox:
            (recipient, payload), rest = state.outbox[0], state.outbox[1:]
            return StepOutcome(
                state=replace(state, outbox=rest),
                send_to=recipient,
                payload=payload,
            )

        if state.decided:
            return StepOutcome(state=state)

        state = self._advance(state, ctx)
        # Send at most one queued message this step (if _advance queued).
        if state.outbox:
            (recipient, payload), rest = state.outbox[0], state.outbox[1:]
            return StepOutcome(
                state=replace(state, outbox=rest),
                send_to=recipient,
                payload=payload,
            )
        return StepOutcome(state=state)

    def _advance(self, state: CTState, ctx: StepContext) -> CTState:
        pid = ctx.pid
        round_index = state.round
        coordinator = self.coordinator(round_index)

        if state.phase == SEND_ESTIMATE:
            payload = (ESTIMATE, round_index, state.estimate, state.ts)
            if coordinator == pid:
                # Self-delivery of the coordinator's own estimate.
                estimates = {
                    r: dict(v) for r, v in state.estimates.items()
                }
                estimates.setdefault(round_index, {})[pid] = (
                    state.estimate,
                    state.ts,
                )
                state = replace(state, estimates=estimates)
            else:
                state = self._queue(state, coordinator, payload)
            next_phase = COORDINATE if coordinator == pid else AWAIT_PROPOSAL
            return replace(state, phase=next_phase)

        if state.phase == COORDINATE:
            collected = state.estimates.get(round_index, {})
            if len(collected) < self.majority:
                return state  # keep waiting
            best_sender = min(
                collected,
                key=lambda sender: (-collected[sender][1], sender),
            )
            proposal = collected[best_sender][0]
            proposals = dict(state.proposals)
            proposals[round_index] = proposal
            state = replace(state, proposals=proposals)
            state = self._queue_all(
                state, pid, (PROPOSE, round_index, proposal)
            )
            return replace(state, phase=AWAIT_PROPOSAL)

        if state.phase == AWAIT_PROPOSAL:
            proposal = state.proposals.get(round_index)
            if proposal is not None:
                state = replace(
                    state, estimate=proposal, ts=round_index
                )
                reply: tuple = (ACK, round_index)
                acked = True
            elif ctx.suspects is not None and coordinator in ctx.suspects:
                reply = (NACK, round_index)
                acked = False
            else:
                return state  # keep waiting: proposal or suspicion
            if coordinator == pid:
                replies = {r: dict(v) for r, v in state.replies.items()}
                replies.setdefault(round_index, {})[pid] = acked
                state = replace(state, replies=replies)
            else:
                state = self._queue(state, coordinator, reply)
            if coordinator == pid:
                return replace(state, phase=COLLECT_REPLIES)
            # Non-coordinators move on to the next round immediately.
            return replace(
                state, round=round_index + 1, phase=SEND_ESTIMATE
            )

        if state.phase == COLLECT_REPLIES:
            collected = state.replies.get(round_index, {})
            if len(collected) < self.majority:
                return state
            acks = sum(1 for acked in collected.values() if acked)
            if acks >= self.majority:
                proposal = state.proposals[round_index]
                return self._decide(state, pid, proposal)
            return replace(
                state, round=round_index + 1, phase=SEND_ESTIMATE
            )

        raise ExecutionError(f"unknown phase {state.phase}")  # pragma: no cover


def run_ct_consensus(
    values: Sequence[Any],
    pattern: FailurePattern,
    *,
    t: int | None = None,
    rng: random.Random | None = None,
    stabilization_time: int = 60,
    false_suspicion_prob: float = 0.2,
    max_steps: int = 6_000,
    delivery_prob: float = 0.5,
    max_age: int = 30,
) -> Run:
    """Execute ◊S consensus under a random asynchronous schedule.

    The detector history comes from
    :class:`~repro.failures.detectors.EventuallyStrongDetector`: before
    ``stabilization_time`` it may suspect correct processes (driving
    NACKs and wasted rounds), after it some correct process is trusted
    forever — the liveness lever.
    """
    n = len(values)
    resilience = t if t is not None else (n - 1) // 2
    if rng is None:
        rng = random.Random(0)
    algorithm = ChandraTouegConsensus(n, resilience, values)
    detector = EventuallyStrongDetector(
        stabilization_time=stabilization_time,
        false_suspicion_prob=false_suspicion_prob,
    )
    history = detector.history(pattern, horizon=max_steps, rng=rng)
    executor = StepExecutor(
        algorithm,
        n,
        pattern,
        RandomScheduler(rng, delivery_prob=delivery_prob, max_age=max_age),
        history=history,
    )

    def all_correct_decided(states: Mapping[int, CTState]) -> bool:
        undrained = any(
            states[pid].outbox for pid in pattern.correct
        )
        return not undrained and all(
            states[pid].decided for pid in pattern.correct
        )

    return executor.execute(max_steps, stop_when=all_correct_decided)


def ct_decisions(run: Run) -> dict[int, Any]:
    """The decision of every process that decided in the run."""
    return {
        pid: state.decision
        for pid, state in run.final_states.items()
        if isinstance(state, CTState) and state.decided
    }
