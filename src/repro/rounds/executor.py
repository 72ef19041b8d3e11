"""Executors for the RS and RWS round models.

One engine runs both models; the difference is whether the scenario may
contain pending messages (validated up front) — precisely the paper's
framing, where RS and RWS algorithms share the ``(states, msgs, trans)``
interface and only the delivery guarantee differs.

One round of that interface is the *round step*, two pure phases that
touch no observer and mutate no argument: :func:`round_messages` (every
starter's ``msgs_i``) and :func:`complete_round` (delivery and ``trans_i``
under one adversary choice).  :func:`execute` folds the step over a
:class:`FailureScenario`, and :mod:`repro.mc.explore` calls
``round_messages`` once per configuration and ``complete_round`` once
per adversary choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Collection, Iterable, Mapping, NamedTuple, Sequence

from repro.consensus import clauses
from repro.errors import ConfigurationError, ScenarioError
from repro.obs.events import EventLog
from repro.obs.profile import profiled
from repro.rounds.algorithm import RoundAlgorithm
from repro.rounds.scenario import CrashEvent, FailureScenario, validate_scenario


class RoundModel(enum.Enum):
    """Which round model an execution takes place in."""

    RS = "RS"
    RWS = "RWS"


@dataclass(frozen=True)
class RoundRecord:
    """What happened during one round.

    Attributes:
        index: 1-based round number.
        sent: ``(sender, recipient) -> payload`` for every message that
            was actually sent (reached the network).
        delivered: ``recipient -> {sender: payload}`` for every message
            received this round.  Both mapping levels are read-only
            views; mutating them raises ``TypeError``.
        transitioned: Processes that applied their transition.
        crashed: Processes that crashed during this round.
    """

    index: int
    sent: Mapping[tuple[int, int], Any]
    delivered: Mapping[int, Mapping[int, Any]]
    transitioned: frozenset[int]
    crashed: frozenset[int]


@dataclass
class RoundRun:
    """A finite execution of a round algorithm under one scenario."""

    model: RoundModel
    algorithm_name: str
    n: int
    t: int
    values: tuple[Any, ...]
    scenario: FailureScenario
    rounds: list[RoundRecord] = field(default_factory=list)
    final_states: dict[int, Any] = field(default_factory=dict)
    decisions: dict[int, tuple[int, Any]] = field(default_factory=dict)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def decision_value(self, pid: int) -> Any:
        entry = self.decisions.get(pid)
        return entry[1] if entry is not None else None

    def decision_round(self, pid: int) -> int | None:
        entry = self.decisions.get(pid)
        return entry[0] if entry is not None else None

    def decided_values(self) -> set[Any]:
        """All distinct decision values (of correct *and* faulty processes)."""
        return {value for _, value in self.decisions.values()}

    def latency(self) -> int | None:
        """The latency degree ``|r|``: rounds until all correct decide.

        Returns ``None`` when some correct process has not decided
        within the executed rounds (an incomplete run).
        """
        return clauses.latency(self.decisions, self.scenario.correct)

    def all_correct_decided(self) -> bool:
        return self.latency() is not None


def execute(
    algorithm: RoundAlgorithm,
    values: Sequence[Any],
    scenario: FailureScenario,
    *,
    t: int,
    model: RoundModel,
    max_rounds: int,
    validate: bool = True,
    run_all_rounds: bool = False,
    observer: EventLog | None = None,
) -> RoundRun:
    """Execute ``algorithm`` from ``values`` under ``scenario``.

    Args:
        algorithm: The round algorithm to run.
        values: Initial value of each process; ``len(values)`` fixes ``n``.
        scenario: The adversary's complete decision.
        t: Resilience parameter passed to the algorithm's initial states.
        model: ``RoundModel.RS`` or ``RoundModel.RWS``.
        max_rounds: Upper bound on executed rounds.
        validate: Check the scenario against the model first (on by
            default; exhaustive searches that pre-validate can skip it).
        run_all_rounds: By default the run stops once every process that
            is still alive has decided and no process will send again
            (``algorithm.halted``).  Set True to always execute exactly
            ``max_rounds`` rounds.
        observer: Optional :class:`~repro.obs.EventLog` recording the
            run's structured events (``round_start``, each round's
            ``round_sends`` / ``round_deliveries``, ``crash``,
            ``decide``, ``halt``).  ``None`` (default) costs nothing.

    Returns:
        The completed :class:`RoundRun`.
    """
    n = len(values)
    if n != scenario.n:
        raise ConfigurationError(
            f"{n} initial values but scenario is over {scenario.n} processes"
        )
    if validate:
        problems = validate_scenario(
            scenario,
            t=t,
            allow_pending=(model is RoundModel.RWS),
            horizon=max_rounds,
        )
        if problems:
            raise ScenarioError("; ".join(problems))

    states: dict[int, Any] = {
        pid: algorithm.initial_state(pid, n, t, values[pid])
        for pid in range(n)
    }
    run = RoundRun(
        model=model,
        algorithm_name=algorithm.name,
        n=n,
        t=t,
        values=tuple(values),
        scenario=scenario,
    )

    # The adversary's per-process facts, read once per run; asking the
    # scenario per pid (and per message) dominated the round loop.
    # First event wins, as in ``FailureScenario.crash_of``.
    crash_of: dict[int, CrashEvent] = {}
    for event in scenario.crashes:
        crash_of.setdefault(event.pid, event)
    pending_in: dict[int, set[tuple[int, int]]] = {}
    for pend in scenario.pending:
        pending_in.setdefault(pend.round, set()).add(
            (pend.sender, pend.recipient)
        )

    # Every process begins round 1; a round's starters minus its
    # crashers begin the next.
    starters = list(range(n))
    with profiled("rounds.execute"):
        for round_index in range(1, max_rounds + 1):
            dying = {
                pid: crash
                for pid, crash in crash_of.items()
                if crash.round == round_index
            }
            if observer is not None:
                observer.round_start(round_index, starters)
            step = complete_round(
                algorithm,
                states,
                round_messages(algorithm, states, starters, n),
                round_index,
                dying,
                pending_in.get(round_index, ()),
            )
            if observer is not None:
                pairs = list(step.sent)
                observer.round_sends(round_index, pairs)
                observer.round_deliveries(round_index, pairs, step.withheld)
            states.update(step.states)
            for pid in starters:
                if observer is not None and pid in dying:
                    observer.crash(
                        pid,
                        round_index=round_index,
                        applies_transition=dying[pid].applies_transition,
                    )
                entry = step.decisions.get(pid)
                if entry is not None and pid not in run.decisions:
                    run.decisions[pid] = entry
                    if observer is not None:
                        observer.decide(pid, entry[1], round_index)
            # The record exposes read-only views of the step's freshly
            # built maps instead of copying them — nothing mutates them
            # after this point, and MappingProxyType makes that a
            # guarantee for consumers.
            run.rounds.append(
                RoundRecord(
                    index=round_index,
                    sent=MappingProxyType(step.sent),
                    delivered=MappingProxyType(
                        {
                            pid: MappingProxyType(msgs)
                            for pid, msgs in step.delivered.items()
                        }
                    ),
                    transitioned=step.transitioned,
                    crashed=step.crashed,
                )
            )
            starters = [pid for pid in starters if pid not in dying]
            if not run_all_rounds and all(
                algorithm.halted(pid, states[pid]) for pid in starters
            ):
                break

    if observer is not None:
        for pid in starters:
            if algorithm.halted(pid, states[pid]):
                observer.halt(pid, len(run.rounds))

    run.final_states = dict(states)
    return run


class RoundStep(NamedTuple):
    """Outcome of one round under one adversary choice.

    Attributes:
        sent: ``(sender, recipient) -> payload`` of every message that
            reached the network, in send order.
        withheld: The sent pairs that were withheld (RWS pending).
        delivered: ``recipient -> {sender: payload}``, for every pid.
        states: New state of each process that applied its transition.
        transitioned: Processes that applied their transition.
        crashed: Processes that crashed during the round.
        decisions: ``pid -> (round_index, value)`` for every
            transitioning process whose new state carries a decision
            (whether or not it had decided before).
    """

    sent: dict[tuple[int, int], Any]
    withheld: frozenset[tuple[int, int]]
    delivered: dict[int, dict[int, Any]]
    states: dict[int, Any]
    transitioned: frozenset[int]
    crashed: frozenset[int]
    decisions: dict[int, tuple[int, Any]]


def round_messages(
    algorithm: RoundAlgorithm,
    states: Mapping[int, Any] | Sequence[Any],
    starters: Iterable[int],
    n: int,
) -> dict[int, Mapping[int, Any]]:
    """Send phase, before any adversary choice: ``msgs_i`` of every
    process beginning the round, recipients range-checked."""
    outgoing: dict[int, Mapping[int, Any]] = {}
    for pid in starters:
        outgoing[pid] = messages = algorithm.messages(pid, states[pid])
        for recipient in messages:
            if not 0 <= recipient < n:
                raise ConfigurationError(
                    f"{algorithm.name}: p{pid} addressed unknown process "
                    f"{recipient}"
                )
    return outgoing


def complete_round(
    algorithm: RoundAlgorithm,
    states: Mapping[int, Any] | Sequence[Any],
    outgoing: Mapping[int, Mapping[int, Any]],
    round_index: int,
    dying: Mapping[int, CrashEvent],
    withheld: Collection[tuple[int, int]],
) -> RoundStep:
    """Delivery and transition phases under one adversary choice.

    Args:
        states: Current state of every process, indexed by pid
            (``len(states)`` is ``n``).
        outgoing: :func:`round_messages` of the round's starters.
        dying: The :class:`CrashEvent` of each process crashing this
            round (its sends are cut by :meth:`CrashEvent.reaches`).
        withheld: ``(sender, recipient)`` pairs the adversary withholds
            this round; pairs that were never sent are ignored.
    """
    sent: dict[tuple[int, int], Any] = {}
    for pid, messages in outgoing.items():
        crash = dying.get(pid)
        for recipient, payload in messages.items():
            if crash is None or crash.reaches(recipient):
                sent[(pid, recipient)] = payload

    held = (
        frozenset(pair for pair in sent if pair in withheld)
        if withheld
        else frozenset()
    )
    delivered: dict[int, dict[int, Any]] = {
        pid: {} for pid in range(len(states))
    }
    for pair, payload in sent.items():
        if pair not in held:
            sender, recipient = pair
            delivered[recipient][sender] = payload

    new_states: dict[int, Any] = {}
    decisions: dict[int, tuple[int, Any]] = {}
    for pid in outgoing:
        crash = dying.get(pid)
        if crash is not None and not crash.applies_transition:
            continue
        new_states[pid] = state = algorithm.transition(
            pid, states[pid], delivered[pid]
        )
        decision = algorithm.decision_of(state)
        if decision is not None:
            decisions[pid] = (round_index, decision)
    return RoundStep(
        sent=sent,
        withheld=held,
        delivered=delivered,
        states=new_states,
        transitioned=frozenset(new_states),
        crashed=frozenset(pid for pid in outgoing if pid in dying),
        decisions=decisions,
    )


def run_rs(
    algorithm: RoundAlgorithm,
    values: Sequence[Any],
    scenario: FailureScenario,
    *,
    t: int,
    max_rounds: int | None = None,
    run_all_rounds: bool = False,
    observer: EventLog | None = None,
) -> RoundRun:
    """Execute in the RS model (round synchrony; no pending messages)."""
    horizon = max_rounds if max_rounds is not None else t + 2
    return execute(
        algorithm,
        values,
        scenario,
        t=t,
        model=RoundModel.RS,
        max_rounds=horizon,
        run_all_rounds=run_all_rounds,
        observer=observer,
    )


def run_rws(
    algorithm: RoundAlgorithm,
    values: Sequence[Any],
    scenario: FailureScenario,
    *,
    t: int,
    max_rounds: int | None = None,
    run_all_rounds: bool = False,
    observer: EventLog | None = None,
) -> RoundRun:
    """Execute in the RWS model (weak round synchrony; pending allowed)."""
    horizon = max_rounds if max_rounds is not None else t + 2
    return execute(
        algorithm,
        values,
        scenario,
        t=t,
        model=RoundModel.RWS,
        max_rounds=horizon,
        run_all_rounds=run_all_rounds,
        observer=observer,
    )
