"""Theorem 3.1, mechanised: SDD is unsolvable in SP.

The proof constructs four runs; we execute all four against any
candidate receiver and report which SDD clause breaks:

* ``r0`` — the sender has value 0 and is *initially dead* (takes no
  step); the receiver suspects it from the start.
* ``r0'`` — the sender has value 0, takes exactly one step (the send),
  and crashes; the message experiences an arbitrarily long delay and is
  never delivered within the prefix.  The receiver's observation
  sequence — no messages, sender suspected at every query — is
  **identical** to ``r0``.
* ``r1``, ``r1'`` — the same two runs with sender value 1.

A deterministic receiver therefore decides the same value ``d`` in all
four runs.  Validity in ``r0'`` forces ``d = 0``; validity in ``r1'``
forces ``d = 1`` — contradiction.  Every concrete candidate must thus
violate validity (or termination, by never deciding) in at least one of
the four runs; :func:`refute_sdd_candidate` exhibits the violation.

The histories used are legitimate perfect-detector histories: in every
run the sender really has crashed by the time the receiver's module
reports the suspicion (in ``r0'``/``r1'`` the sender crashes at time 1
and the receiver's first query is at time 1).  The construction only
exploits the two slacks SP genuinely has — unbounded message delay and
unbounded detection *timing* freedom within the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.failures.history import ConstantHistory
from repro.failures.pattern import FailurePattern
from repro.obs.events import EventLog
from repro.sdd.spec import RECEIVER, SENDER, check_sdd_run, sdd_decision
from repro.sdd.ss_algorithm import ReceiverState, SDDSender
from repro.simulation.automaton import StepAutomaton, StepContext, StepOutcome
from repro.simulation.executor import StepExecutor
from repro.simulation.run import Run
from repro.simulation.schedulers import ScriptedScheduler


# ---------------------------------------------------------------------------
# Candidate SP receivers.  Each records decisions in ``state.decisions``.
# ---------------------------------------------------------------------------


class TimeoutReceiverSP(StepAutomaton):
    """Decide after a fixed number of steps — a hopeless timeout in SP.

    With no Φ/Δ bounds, no constant is long enough: the adversary just
    delays the sender's message past the deadline.
    """

    def __init__(self, deadline: int = 10, default: Any = 0) -> None:
        self.deadline = deadline
        self.default = default

    def initial_state(self, pid: int, n: int) -> ReceiverState:
        return ReceiverState()

    def on_step(self, ctx: StepContext) -> StepOutcome:
        state: ReceiverState = ctx.state
        steps_taken = state.steps_taken + 1
        received_value = state.received_value
        for message in ctx.received:
            received_value = message.payload
        decisions = state.decisions
        if steps_taken >= self.deadline and not decisions:
            decisions = (
                received_value if received_value is not None else self.default,
            )
        return StepOutcome(
            state=replace(
                state,
                steps_taken=steps_taken,
                received_value=received_value,
                decisions=decisions,
            )
        )


class SuspicionReceiverSP(StepAutomaton):
    """Decide the received value, or the default upon suspecting the sender.

    The natural use of the perfect detector — and precisely the
    receiver defeated by ``r0'``: the suspicion is correct (the sender
    did crash) yet the sender was not initially dead, so deciding the
    default violates validity.
    """

    def __init__(self, default: Any = 0) -> None:
        self.default = default

    def initial_state(self, pid: int, n: int) -> ReceiverState:
        return ReceiverState()

    def on_step(self, ctx: StepContext) -> StepOutcome:
        state: ReceiverState = ctx.state
        steps_taken = state.steps_taken + 1
        received_value = state.received_value
        for message in ctx.received:
            received_value = message.payload
        decisions = state.decisions
        if not decisions:
            if received_value is not None:
                decisions = (received_value,)
            elif ctx.suspects and SENDER in ctx.suspects:
                decisions = (self.default,)
        return StepOutcome(
            state=replace(
                state,
                steps_taken=steps_taken,
                received_value=received_value,
                decisions=decisions,
            )
        )


@dataclass(frozen=True)
class PatientReceiverState(ReceiverState):
    """Receiver state extended with the step at which suspicion began."""

    first_suspected: int | None = None


class PatientReceiverSP(StepAutomaton):
    """Suspicion plus a grace period — still defeated.

    After suspecting the sender it waits ``grace`` further steps hoping
    the value shows up late.  Message delay in SP is finite but
    *unbounded*, so no finite grace period helps.
    """

    def __init__(self, grace: int = 5, default: Any = 0) -> None:
        self.grace = grace
        self.default = default

    def initial_state(self, pid: int, n: int) -> PatientReceiverState:
        return PatientReceiverState()

    def on_step(self, ctx: StepContext) -> StepOutcome:
        state: PatientReceiverState = ctx.state
        steps_taken = state.steps_taken + 1
        received_value = state.received_value
        for message in ctx.received:
            received_value = message.payload
        decisions = state.decisions
        suspected = bool(ctx.suspects and SENDER in ctx.suspects)
        first_suspected = state.first_suspected
        if suspected and first_suspected is None:
            first_suspected = steps_taken
        if not decisions:
            if received_value is not None:
                decisions = (received_value,)
            elif (
                first_suspected is not None
                and steps_taken - first_suspected >= self.grace
            ):
                decisions = (self.default,)
        return StepOutcome(
            state=replace(
                state,
                steps_taken=steps_taken,
                received_value=received_value,
                decisions=decisions,
                first_suspected=first_suspected,
            )
        )


#: Named factories for the candidate pool used by tests and experiment E2.
SP_CANDIDATE_FACTORIES: dict[str, Callable[[], StepAutomaton]] = {
    "timeout": lambda: TimeoutReceiverSP(deadline=10),
    "suspicion": lambda: SuspicionReceiverSP(),
    "patient": lambda: PatientReceiverSP(grace=5),
}


# ---------------------------------------------------------------------------
# The run-quadruple refuter.
# ---------------------------------------------------------------------------


@dataclass
class SDDRefutation:
    """The outcome of running a candidate through the Theorem 3.1 runs."""

    candidate: str
    decisions: dict[str, Any]  # run name -> receiver decision (or None)
    violations: dict[str, list[str]]  # run name -> violated clauses
    refuted: bool

    def describe(self) -> str:
        lines = [f"candidate {self.candidate!r}:"]
        for name in ("r0", "r0'", "r1", "r1'"):
            decision = self.decisions.get(name)
            problems = self.violations.get(name, [])
            status = "; ".join(problems) if problems else "ok"
            lines.append(f"  {name}: decision={decision!r} -> {status}")
        lines.append(
            "  => refuted" if self.refuted else "  => NOT refuted (unexpected)"
        )
        return "\n".join(lines)


#: The four runs of Theorem 3.1 as (sender value, sender steps) pairs.
QUADRUPLE = {
    "r0": (0, 0),
    "r0'": (0, 1),
    "r1": (1, 0),
    "r1'": (1, 1),
}


def _run_quadruple_member(
    receiver: StepAutomaton,
    sender_value: Any,
    sender_steps: int,
    horizon: int,
    observer: Any = None,
) -> Run:
    """Execute one of the four runs.

    ``sender_steps`` is 0 for the initially-dead variant and 1 for the
    send-then-crash variant.  The receiver's message deliveries are
    always empty (the sent message is delayed past the prefix) and its
    detector reports the sender suspected at every query — a valid
    perfect-detector history since the sender has crashed by the
    receiver's first step in both variants.
    """
    crash_time = 0 if sender_steps == 0 else 1
    pattern = FailurePattern.with_crashes(2, {SENDER: crash_time})
    script: list[tuple[int, object]] = []
    script.extend((SENDER, "all") for _ in range(sender_steps))
    script.extend((RECEIVER, ()) for _ in range(horizon))
    executor = StepExecutor(
        [SDDSender(sender_value), receiver],
        2,
        pattern,
        ScriptedScheduler(script),
        history=ConstantHistory({SENDER}),
        observer=observer,
    )

    def receiver_decided(states) -> bool:
        return bool(states[RECEIVER].decisions)

    return executor.execute(
        sender_steps + horizon, stop_when=receiver_decided
    )


def refute_sdd_candidate(
    factory: Callable[[], StepAutomaton],
    name: str = "candidate",
    *,
    horizon: int = 200,
) -> SDDRefutation:
    """Run a candidate receiver through the Theorem 3.1 quadruple.

    A fresh receiver instance is built per run (factories keep the
    candidates stateless across runs).  Returns the per-run decisions
    and violated clauses; ``refuted`` is True when at least one run
    violates the SDD specification — which Theorem 3.1 guarantees for
    every candidate.
    """
    decisions: dict[str, Any] = {}
    violations: dict[str, list[str]] = {}
    for run_name, (value, sender_steps) in QUADRUPLE.items():
        run = _run_quadruple_member(factory(), value, sender_steps, horizon)
        verdict = check_sdd_run(run, value)
        decisions[run_name] = sdd_decision(run)
        violations[run_name] = verdict.violations
    refuted = any(problems for problems in violations.values())
    return SDDRefutation(
        candidate=name,
        decisions=decisions,
        violations=violations,
        refuted=refuted,
    )


def sdd_quadruple_traces(
    factory: Callable[[], StepAutomaton],
    *,
    horizon: int = 200,
) -> dict[str, EventLog]:
    """Execute the Theorem 3.1 quadruple under event logging.

    Returns one :class:`EventLog` per run name (``r0``, ``r0'``,
    ``r1``, ``r1'``), each recorded with a deterministic logical clock
    and carrying a lifted ``decide`` event when the receiver decides.
    The receiver's *local views* (see :func:`repro.obs.diff.local_view`)
    of ``r0`` vs ``r0'`` — and of ``r1`` vs ``r1'`` — are
    indistinguishable, which is exactly the proof's pivot: a
    deterministic receiver must decide the same value in both members
    of each pair.
    """
    traces: dict[str, EventLog] = {}
    for run_name, (value, sender_steps) in QUADRUPLE.items():
        log = EventLog()
        run = _run_quadruple_member(
            factory(), value, sender_steps, horizon, observer=log
        )
        decision = sdd_decision(run)
        if decision is not None:
            log.decide(RECEIVER, decision)
        traces[run_name] = log
    return traces
