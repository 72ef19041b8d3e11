"""The round-on-steps synchronizer: RS on SS and RWS on SP (Section 4).

Both emulations are one construction.  A process performs round ``r``
by sending the round's messages one per step (the step model allows a
single addressee per step, which is why a broadcast costs ``n - 1``
steps), then taking null steps until the round *completes*, then
applying ``trans_i`` to the round-``r`` messages that arrived.  Only
the completion rule differs, and it is the one piece a subclass of
:class:`RoundOnStepsAutomaton` supplies.

**RS on SS** (:class:`RoundOnSSAutomaton`, Section 4.1).  The paper:
"in each round r, every process p_i executes n + k steps of the SS
model.  The first n steps are used to send real messages whereas in the
k last steps, p_i sends null messages to make sure that, before moving
to round r + 1, p_i receives all messages sent to it by other processes
in round r (k is a function of n, Δ, Φ and r)."  Our instantiation
fixes per-round *local-step deadlines* ``S_r``:

    S_0 = 0,    S_r = Φ · (S_{r-1} + n) + Δ + 1

and round ``r`` completes on the local step that reaches ``S_r``.

Why the deadline suffices: an alive sender ``p_j`` finishes its
round-``r`` sends by its local step ``σ = S_{r-1} + n - 1``.  Process
synchrony bounds how far ``p_i`` can run ahead — at the global moment
of ``p_j``'s ``σ``-th step, ``p_i`` has taken at most ``Φ·(σ+1)`` local
steps.  Message synchrony then delivers within ``Δ`` further global
steps, during which ``p_i`` takes at most ``Δ`` local steps.  Hence by
local step ``Φ·(S_{r-1}+n) + Δ + 1 = S_r`` every message an alive peer
sent in round ``r`` has arrived — which is exactly the *round
synchrony* property: a missing message implies the sender crashed
before sending it.  (For ``Φ = 1`` the deadlines grow linearly —
``n + Δ + 1`` extra steps per round; for larger ``Φ`` they grow
geometrically, the price of processes drifting apart.)

**RWS on SP** (:class:`RoundOnSPAutomaton`, Section 4.2).  The
reception rule is the paper's, verbatim: "Process p_i keeps executing
(possibly null) steps of model SP until, for every process p_j, either
p_i receives a message from p_j or p_i suspects p_j."  Because the
perfect detector's suspicions may race ahead of message deliveries, a
process can close a round while a message addressed to it is still in
flight — a *pending* message.  Lemma 4.1 proves the emulation
nevertheless guarantees weak round synchrony: the sender of a pending
message crashes by the end of the following round.  Experiment E12
validates this mechanically on randomized SP runs, and
:func:`count_pending_messages` confirms the phenomenon actually occurs
(the lemma would otherwise hold vacuously).
"""

from __future__ import annotations

import random
from abc import abstractmethod
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.failures.history import FailureDetectorHistory
from repro.failures.pattern import FailurePattern
from repro.inject import active_injection
from repro.models.sp import PerfectFDModel
from repro.models.ss import SSScheduler
from repro.obs.events import EventLog
from repro.obs.profile import profiled
from repro.rounds.algorithm import RoundAlgorithm
from repro.simulation.automaton import StepAutomaton, StepContext, StepOutcome
from repro.simulation.executor import StepExecutor
from repro.simulation.run import Run
from repro.simulation.schedulers import Scheduler


def round_deadlines(n: int, phi: int, delta: int, num_rounds: int) -> list[int]:
    """Return ``[S_1, ..., S_R]``: the local-step deadline of each round."""
    if n < 2:
        raise ConfigurationError("emulation needs at least two processes")
    if phi < 1 or delta < 1:
        raise ConfigurationError("SS bounds require Φ >= 1 and Δ >= 1")
    deadlines: list[int] = []
    previous = 0
    for _ in range(num_rounds):
        previous = phi * (previous + n) + delta + 1
        deadlines.append(previous)
    return deadlines


@dataclass(frozen=True)
class _EmuState:
    """Per-process state of the round-on-steps wrapper."""

    round: int  # current round, 1-based
    outbox: tuple[tuple[int, Any], ...]  # (recipient, payload) yet to send
    inbox: Mapping[int, Mapping[int, Any]]  # round -> sender -> payload
    algo_state: Any
    self_payload: Any  # this round's message to self, if any
    delivered_log: tuple[tuple[int, frozenset[int]], ...]  # (round, senders)
    decision_round: int | None
    finished: bool


@dataclass
class EmulatedRoundTrace:
    """What the emulation produced, in round-model vocabulary."""

    n: int
    num_rounds: int
    #: per process: round -> senders whose round messages were used
    senders_used: dict[int, dict[int, frozenset[int]]]
    #: per process: (decision round, value) or None
    decisions: dict[int, tuple[int, Any] | None]
    #: per process: last round whose transition was applied
    completed_rounds: dict[int, int]
    run: Run

    @cached_property
    def sent_index(self) -> dict[tuple[int, int, int], int]:
        """``(sender, recipient, round) -> uid`` of every message that
        reached the network.  Sends are read off the underlying step
        run, so checks built on this index test the emulation's
        completion rule, not its own bookkeeping."""
        index: dict[tuple[int, int, int], int] = {}
        for message in self.run.messages.values():
            message_round, _ = message.payload
            index.setdefault(
                (message.sender, message.recipient, message_round),
                message.uid,
            )
        return index

    def pending_triples(self) -> list[tuple[int, int, int]]:
        """``(sender, recipient, round)`` messages sent but unused by a
        process that completed the round — the emulation's pending
        messages."""
        return [
            (peer, pid, round_index)
            for pid, per_round in self.senders_used.items()
            for round_index, senders in per_round.items()
            for peer in range(self.n)
            if peer != pid
            and peer not in senders
            and (peer, pid, round_index) in self.sent_index
        ]


class RoundOnStepsAutomaton(StepAutomaton):
    """Step automaton executing a round algorithm, one send per step.

    Subclasses supply :meth:`round_complete` — when the current round
    ends — and name the round model they emulate.
    """

    #: The emulated round model: pending messages are lifted for "RWS"
    #: only ("RS" has none on any honest run).
    model: str

    def __init__(
        self,
        algorithm: RoundAlgorithm,
        n: int,
        t: int,
        values: Sequence[Any],
        num_rounds: int,
    ) -> None:
        if len(values) != n:
            raise ConfigurationError("one initial value per process required")
        self.algorithm = algorithm
        self.n = n
        self.t = t
        self.values = tuple(values)
        self.num_rounds = num_rounds

    @abstractmethod
    def round_complete(self, ctx: StepContext, state: _EmuState) -> bool:
        """Whether ``state.round`` ends on this step (``state`` already
        holds the step's receptions and has made its send)."""

    def _build_outbox(
        self, pid: int, algo_state: Any
    ) -> tuple[tuple[tuple[int, Any], ...], Any]:
        """Split the algorithm's messages into network sends and the
        self-addressed payload (delivered internally)."""
        outgoing = self.algorithm.messages(pid, algo_state)
        sends = tuple(
            (recipient, payload)
            for recipient, payload in sorted(outgoing.items())
            if recipient != pid
        )
        return sends, outgoing.get(pid)

    # -- StepAutomaton interface ------------------------------------------------

    def initial_state(self, pid: int, n: int) -> _EmuState:
        algo_state = self.algorithm.initial_state(
            pid, self.n, self.t, self.values[pid]
        )
        outbox, self_payload = self._build_outbox(pid, algo_state)
        return _EmuState(
            round=1,
            outbox=outbox,
            inbox={},
            algo_state=algo_state,
            self_payload=self_payload,
            delivered_log=(),
            decision_round=None,
            finished=False,
        )

    def on_step(self, ctx: StepContext) -> StepOutcome:
        state: _EmuState = ctx.state

        # Receive phase: file tagged messages into the per-round inbox.
        inbox: dict[int, dict[int, Any]] = {
            r: dict(senders) for r, senders in state.inbox.items()
        }
        for message in ctx.received:
            message_round, payload = message.payload
            inbox.setdefault(message_round, {})[message.sender] = payload

        if state.finished:
            return StepOutcome(state=replace(state, inbox=inbox))

        # Send phase: one outstanding round message per step.
        send_to: int | None = None
        send_payload: Any = None
        outbox = state.outbox
        if outbox:
            (send_to, raw_payload), outbox = outbox[0], outbox[1:]
            send_payload = (state.round, raw_payload)

        new_state = replace(state, inbox=inbox, outbox=outbox)
        if self.round_complete(ctx, new_state):
            new_state = self._apply_transition(ctx.pid, new_state)

        return StepOutcome(
            state=new_state, send_to=send_to, payload=send_payload
        )

    def _apply_transition(self, pid: int, state: _EmuState) -> _EmuState:
        received = dict(state.inbox.get(state.round, {}))
        if state.self_payload is not None:
            received[pid] = state.self_payload
        if (
            self.model == "RS"
            and active_injection() == "ss-drop-received"
            and len(received) < self.n
        ):
            # Mutation-testing hook (REPRO_INJECT_BUG=ss-drop-received):
            # when a crash left this round's vector incomplete, also
            # drop the lowest-pid peer message that did arrive.  The
            # rounds engine never does this, so the differential fuzzer
            # must flag every run where the mutation fires.
            for sender in sorted(received):
                if sender != pid:
                    del received[sender]
                    break
        algo_state = self.algorithm.transition(pid, state.algo_state, received)
        decision_round = state.decision_round
        if (
            decision_round is None
            and self.algorithm.decision_of(algo_state) is not None
        ):
            decision_round = state.round
        state = replace(
            state,
            algo_state=algo_state,
            decision_round=decision_round,
            delivered_log=state.delivered_log
            + ((state.round, frozenset(received)),),
        )
        if state.round == self.num_rounds:
            return replace(state, finished=True)
        outbox, self_payload = self._build_outbox(pid, algo_state)
        return replace(
            state,
            round=state.round + 1,
            outbox=outbox,
            self_payload=self_payload,
        )


class RoundOnSSAutomaton(RoundOnStepsAutomaton):
    """Rounds on SS: a round ends on its local-step deadline ``S_r``."""

    model = "RS"

    def __init__(
        self,
        algorithm: RoundAlgorithm,
        n: int,
        t: int,
        values: Sequence[Any],
        phi: int,
        delta: int,
        num_rounds: int,
    ) -> None:
        super().__init__(algorithm, n, t, values, num_rounds)
        self.deadlines = round_deadlines(n, phi, delta, num_rounds)

    def round_complete(self, ctx: StepContext, state: _EmuState) -> bool:
        return ctx.local_step >= self.deadlines[state.round - 1]


class RoundOnSPAutomaton(RoundOnStepsAutomaton):
    """Rounds on SP: a round ends once the round's sends are done and
    every peer has either delivered its round message or is suspected
    by the local perfect-detector module."""

    model = "RWS"

    def round_complete(self, ctx: StepContext, state: _EmuState) -> bool:
        if state.outbox:
            return False
        suspects = ctx.suspects if ctx.suspects is not None else frozenset()
        heard = state.inbox.get(state.round, {})
        return all(
            peer in heard or peer in suspects
            for peer in range(self.n)
            if peer != ctx.pid
        )


def _emulate(
    automaton: RoundOnStepsAutomaton,
    pattern: FailurePattern,
    scheduler: Scheduler,
    max_steps: int,
    span: str,
    *,
    history: FailureDetectorHistory | None = None,
    observer: EventLog | None,
) -> EmulatedRoundTrace:
    """Run the automaton on the step kernel until every correct process
    finished its rounds, and lift the step run to round vocabulary:
    the trace plus ``decide`` / ``msg_withheld`` / ``halt`` events."""
    n = automaton.n
    correct = pattern.correct

    def everyone_finished(states: Mapping[int, _EmuState]) -> bool:
        return all(states[pid].finished for pid in correct)

    executor = StepExecutor(
        automaton, n, pattern, scheduler, history=history, observer=observer
    )
    with profiled(span):
        run = executor.execute(max_steps, stop_when=everyone_finished)

    senders_used: dict[int, dict[int, frozenset[int]]] = {}
    decisions: dict[int, tuple[int, Any] | None] = {}
    completed: dict[int, int] = {}
    for pid in range(n):
        state: _EmuState = run.final_states[pid]
        senders_used[pid] = dict(state.delivered_log)
        completed[pid] = max((r for r, _ in state.delivered_log), default=0)
        decision_value = automaton.algorithm.decision_of(state.algo_state)
        if state.decision_round is not None and decision_value is not None:
            decisions[pid] = (state.decision_round, decision_value)
        else:
            decisions[pid] = None
        if pid in correct and not state.finished:
            raise ExecutionError(
                f"correct process {pid} did not finish "
                f"{automaton.num_rounds} rounds within {max_steps} steps"
            )
    trace = EmulatedRoundTrace(
        n=n,
        num_rounds=automaton.num_rounds,
        senders_used=senders_used,
        decisions=decisions,
        completed_rounds=completed,
        run=run,
    )
    if observer is not None:
        for pid, entry in sorted(decisions.items()):
            if entry is not None:
                observer.decide(pid, entry[1], entry[0])
        if automaton.model == "RWS":
            # Round-tagged ``msg_withheld`` events let the
            # weak-round-synchrony trace checker apply to SP runs too
            # (the exact Lemma 4.1 round bound is checked on the step
            # run by check_emulated_weak_round_synchrony, which sees
            # crash times).
            for triple in sorted(trace.pending_triples()):
                observer.msg_withheld(*triple)
        # Halt is graceful termination: a pattern-faulty process never
        # halts in the lifted round-level view, even when its crash time
        # falls after it completed the round horizon (the kernel's crash
        # event is already in the trace and would contradict a halt).
        for pid in sorted(correct):  # all finished, or we raised above
            observer.halt(pid, completed[pid])
    return trace


def emulate_rs_on_ss(
    algorithm: RoundAlgorithm,
    values: Sequence[Any],
    pattern: FailurePattern,
    *,
    t: int,
    phi: int = 1,
    delta: int = 1,
    num_rounds: int | None = None,
    rng: random.Random | None = None,
    max_steps: int | None = None,
    observer: EventLog | None = None,
) -> EmulatedRoundTrace:
    """Run a round algorithm on the SS step kernel and lift the trace.

    The failure pattern is expressed in *global step* time, giving crash
    placements the step-level granularity the round model abstracts
    away (a crash between two send steps of the same round is exactly
    the round model's "crashed in the middle of a broadcast").

    ``observer`` receives the underlying step kernel's events plus a
    lifted ``decide`` event per deciding process.
    """
    n = len(values)
    rounds = num_rounds if num_rounds is not None else t + 2
    automaton = RoundOnSSAutomaton(
        algorithm, n, t, values, phi, delta, rounds
    )
    horizon = (
        max_steps
        if max_steps is not None
        else (automaton.deadlines[-1] + 2) * n * (phi + 1)
    )
    return _emulate(
        automaton,
        pattern,
        SSScheduler(phi, delta, rng=rng),
        horizon,
        "emulation.rs_on_ss",
        observer=observer,
    )


def emulate_rws_on_sp(
    algorithm: RoundAlgorithm,
    values: Sequence[Any],
    pattern: FailurePattern,
    *,
    t: int,
    num_rounds: int | None = None,
    rng: random.Random | None = None,
    max_steps: int = 20_000,
    max_detection_delay: int = 30,
    delivery_prob: float = 0.5,
    max_age: int = 60,
    observer: EventLog | None = None,
) -> EmulatedRoundTrace:
    """Run a round algorithm on the SP step kernel and lift the trace.

    The detector history's arbitrary (finite) detection delays and the
    scheduler's arbitrary (bounded-by-``max_age``) message delays are
    the two slacks that produce pending messages.

    ``observer`` receives the underlying step kernel's events (message
    sends/deliveries, crashes, detector suspicions) plus a lifted
    ``decide`` event per deciding process and a ``msg_withheld`` event
    per pending message.
    """
    n = len(values)
    rounds = num_rounds if num_rounds is not None else t + 2
    model = PerfectFDModel(
        max_detection_delay=max_detection_delay,
        delivery_prob=delivery_prob,
        max_age=max_age,
    )
    return _emulate(
        RoundOnSPAutomaton(algorithm, n, t, values, rounds),
        pattern,
        model.make_scheduler(rng),
        max_steps,
        "emulation.rws_on_sp",
        history=model.make_history(pattern, horizon=max_steps, rng=rng),
        observer=observer,
    )


def check_emulated_round_synchrony(trace: EmulatedRoundTrace) -> list[str]:
    """Verify round synchrony on an emulated trace.

    For every process ``p_i`` that completed round ``r`` without using a
    message from ``p_j``: ``p_j`` must never have *sent* a round-``r``
    message to ``p_i`` (it crashed before that send step).
    """
    return [
        f"round {round_index}: p{recipient} completed the round "
        f"without p{sender}'s message although it was sent"
        for sender, recipient, round_index in trace.pending_triples()
    ]


def check_emulated_weak_round_synchrony(trace: EmulatedRoundTrace) -> list[str]:
    """Verify Lemma 4.1 on an emulated trace.

    For every pending message from ``p_j`` at round ``r`` towards a
    process that completed round ``r``: ``p_j`` crashes by the end of
    round ``r + 1`` — operationally, ``p_j`` never begins round
    ``r + 2``, i.e. it completes at most round ``r + 1``.
    """
    violations: list[str] = []
    for sender, recipient, round_index in trace.pending_triples():
        if trace.completed_rounds.get(sender, 0) > round_index + 1:
            violations.append(
                f"round {round_index}: message p{sender}->p{recipient} was "
                f"pending, yet p{sender} completed round "
                f"{trace.completed_rounds[sender]} > {round_index + 1}"
            )
    return violations


def count_pending_messages(trace: EmulatedRoundTrace) -> int:
    """How many pending messages the emulation produced (Lemma 4.1 is
    only interesting when this is occasionally non-zero)."""
    return len(trace.pending_triples())
