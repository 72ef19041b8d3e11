"""Executors for the RS and RWS round models.

One engine runs both models; the difference is whether the scenario may
contain pending messages (validated up front) — precisely the paper's
framing, where RS and RWS algorithms share the ``(states, msgs, trans)``
interface and only the delivery guarantee differs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError, ScenarioError
from repro.obs.events import Observer
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
        latest = 0
        for pid in self.scenario.correct:
            entry = self.decisions.get(pid)
            if entry is None:
                return None
            latest = max(latest, entry[0])
        return latest

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
    observer: Observer | None = None,
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
        observer: Optional :class:`~repro.obs.Observer` receiving the
            run's structured events (``round_start``, each round's
            ``round_sends`` / ``round_deliveries`` — replayed as
            ``msg_sent`` / ``msg_delivered`` / ``msg_withheld`` for
            per-message observers — ``crash``, ``decide``, ``halt``).
            ``None`` (default) costs nothing.

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
            if observer is not None:
                observer.scenario_rejected(problems)
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

    with profiled("rounds.execute"):
        for round_index in range(1, max_rounds + 1):
            record = _execute_round(
                algorithm, states, scenario, crash_of, round_index, run, observer
            )
            run.rounds.append(record)
            if not run_all_rounds and all(
                algorithm.halted(pid, states[pid])
                for pid in _starters(n, crash_of, round_index + 1)
            ):
                break

    if observer is not None:
        final_round = len(run.rounds)
        for pid in _starters(n, crash_of, final_round + 1):
            if algorithm.halted(pid, states[pid]):
                observer.halt(pid, final_round)

    run.final_states = dict(states)
    return run


def _starters(
    n: int, crash_of: Mapping[int, CrashEvent], round_index: int
) -> list[int]:
    """The processes that begin ``round_index``, ascending
    (``FailureScenario.alive_at_start`` over the run's crash map)."""
    return [
        pid
        for pid in range(n)
        if pid not in crash_of or crash_of[pid].round >= round_index
    ]


def _execute_round(
    algorithm: RoundAlgorithm,
    states: dict[int, Any],
    scenario: FailureScenario,
    crash_of: Mapping[int, CrashEvent],
    round_index: int,
    run: RoundRun,
    observer: Observer | None = None,
) -> RoundRecord:
    n = scenario.n
    starters = _starters(n, crash_of, round_index)
    dying = {
        pid: crash
        for pid, crash in crash_of.items()
        if crash.round == round_index
    }
    if observer is not None:
        observer.round_start(round_index, starters)

    # Send phase: every process beginning the round generates messages.
    sent: dict[tuple[int, int], Any] = {}
    for pid in starters:
        outgoing = algorithm.messages(pid, states[pid])
        mid_broadcast = pid in dying
        for recipient, payload in outgoing.items():
            if not 0 <= recipient < n:
                raise ConfigurationError(
                    f"{algorithm.name}: p{pid} addressed unknown process "
                    f"{recipient}"
                )
            if mid_broadcast and not scenario.sends_reach(
                pid, recipient, round_index
            ):
                continue  # crashed mid-broadcast before this send
            sent[(pid, recipient)] = payload

    # Delivery phase: withhold pending messages (RWS only; validated).
    pairs = list(sent)
    withheld = (
        frozenset(
            pair for pair in pairs if scenario.withholds(*pair, round_index)
        )
        if scenario.pending
        else frozenset()
    )
    delivered: dict[int, dict[int, Any]] = {pid: {} for pid in range(n)}
    for pair, payload in sent.items():
        if pair not in withheld:
            sender, recipient = pair
            delivered[recipient][sender] = payload
    # A round's traffic is reported a phase at a time; observers that
    # only know the per-message hooks get them replayed (obs.events).
    if observer is not None:
        observer.round_sends(round_index, pairs)
        observer.round_deliveries(round_index, pairs, withheld)

    # Transition phase: processes completing the round apply trans.
    transitioned: set[int] = set()
    crashed_now: set[int] = set()
    for pid in starters:
        crash = dying.get(pid)
        if crash is not None:
            crashed_now.add(pid)
            if observer is not None:
                observer.crash(
                    pid,
                    round_index=round_index,
                    applies_transition=crash.applies_transition,
                )
            if not crash.applies_transition:
                continue
        states[pid] = algorithm.transition(pid, states[pid], delivered[pid])
        transitioned.add(pid)
        decision = algorithm.decision_of(states[pid])
        if decision is not None and pid not in run.decisions:
            run.decisions[pid] = (round_index, decision)
            if observer is not None:
                observer.decide(pid, decision, round_index)

    # The record exposes read-only views of the freshly built delivery
    # maps instead of copying them — nothing mutates them after this
    # point, and MappingProxyType makes that a guarantee for consumers.
    return RoundRecord(
        index=round_index,
        sent=MappingProxyType(sent),
        delivered=MappingProxyType(
            {pid: MappingProxyType(msgs) for pid, msgs in delivered.items()}
        ),
        transitioned=frozenset(transitioned),
        crashed=frozenset(crashed_now),
    )


def run_rs(
    algorithm: RoundAlgorithm,
    values: Sequence[Any],
    scenario: FailureScenario,
    *,
    t: int,
    max_rounds: int | None = None,
    run_all_rounds: bool = False,
    observer: Observer | None = None,
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
    observer: Observer | None = None,
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
