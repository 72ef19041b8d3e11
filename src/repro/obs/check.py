"""Streaming invariant monitors over event traces — the trace oracle.

The paper's model properties are all *predicates over runs*, and a run
is exactly what an :class:`~repro.obs.events.EventLog` records.  This
module turns each property into a streaming checker over the event
sequence:

* **detector.accuracy** — P's strong accuracy: no process is suspected
  before it crashes (Section 2).
* **detector.completeness** — P's strong completeness: every crashed
  process is eventually suspected by every correct one (Section 2).  On
  a finite trace prefix this is a liveness property, so misses are
  reported as *warnings*, not errors.
* **synchrony.rs** — round synchrony (Section 4.1): a sent message is
  always delivered, so ``msg_withheld`` may only name senders that
  already crashed in an earlier round.
* **synchrony.rws** — weak round synchrony (Section 4.2, Lemma 4.1): a
  message withheld in round ``k`` from a recipient that survives the
  round forces its sender to crash by the end of round ``k + 1``.
* **consensus** — agreement, uniform agreement and (when the initial
  values are known) validity and termination over ``decide`` and
  ``crash`` events (Section 5.1, :mod:`repro.consensus.clauses`).
* **ordering** — trace well-formedness: contiguous 1-based round
  numbers, round/time tags consistent with the current round, alive
  lists shrinking exactly by prior crashes, no activity from crashed or
  halted processes.

Checkers consume one event at a time (``feed``) and settle liveness
obligations at end of trace (``finish``); each violation carries the
0-based index of the offending event so reports point at the exact
line of an exported JSONL trace (line = index + 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.consensus import clauses
from repro.obs.events import Event

#: Severity levels a violation may carry.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Violation:
    """One invariant violation, anchored to an event index.

    Attributes:
        checker: Name of the checker that raised it.
        index: 0-based index of the offending event in the trace
            (``-1`` for trace-level findings with no single culprit).
        message: Human-readable description.
        severity: ``"error"`` for safety violations, ``"warning"`` for
            liveness obligations that a finite prefix cannot settle.
        clause: The :mod:`repro.consensus.clauses` clause a
            ``consensus`` finding violates, else ``None``.
    """

    checker: str
    index: int
    message: str
    severity: str = "error"
    clause: str | None = None

    def describe(self) -> str:
        where = f"event {self.index}" if self.index >= 0 else "trace"
        tag = "" if self.severity == "error" else f" ({self.severity})"
        return f"{where}: [{self.checker}]{tag} {self.message}"


@dataclass
class CheckReport:
    """The outcome of running a checker suite over one trace."""

    checkers: tuple[str, ...]
    num_events: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def errors(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> list[Violation]:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity violation was found."""
        return not self.errors

    def by_checker(self, name: str) -> list[Violation]:
        return [v for v in self.violations if v.checker == name]

    def describe(self) -> str:
        lines = [
            f"checked {self.num_events} events with "
            f"{len(self.checkers)} checkers ({', '.join(self.checkers)})"
        ]
        for violation in self.violations:
            lines.append("  " + violation.describe())
        if not self.violations:
            lines.append("  all invariants hold")
        else:
            lines.append(
                f"  => {len(self.errors)} errors, "
                f"{len(self.warnings)} warnings"
            )
        return "\n".join(lines)


class TraceChecker:
    """Base class: feed events one by one, then finish.

    Attributes:
        kinds: The event kinds whose :meth:`feed` can have an effect,
            or ``None`` for all of them.  A promise, not a filter:
            ``feed`` on an event of any other kind must leave the
            checker exactly as it was, which is what lets
            :func:`run_checkers` skip the call.
    """

    name = "checker"
    kinds: frozenset[str] | None = None

    def __init__(self) -> None:
        self.violations: list[Violation] = []

    def _flag(self, index: int, message: str, severity: str = "error") -> None:
        self.violations.append(
            Violation(self.name, index, message, severity)
        )

    def feed(self, index: int, event: Event) -> None:
        """Observe one event (0-based ``index`` within the trace)."""

    def finish(self, num_events: int) -> None:
        """Settle end-of-trace obligations."""


class OrderingChecker(TraceChecker):
    """Trace well-formedness: round/time ordering and lifecycle rules."""

    name = "ordering"

    def __init__(self) -> None:
        super().__init__()
        self._round: int | None = None
        self._n: int | None = None
        self._last_time: int | None = None
        self._crash_round: dict[int, int] = {}
        self._crash_time: dict[int, int] = {}
        self._halted: set[int] = set()

    def feed(self, index: int, event: Event) -> None:
        kind = event.kind
        time = event.time
        if time is not None:
            if self._last_time is not None and time < self._last_time:
                self._flag(
                    index,
                    f"time {time} after time {self._last_time} "
                    "(global step time must be monotone)",
                )
            else:
                self._last_time = time

        if kind == "round_start":
            self._feed_round_start(index, event)
            return
        round_index = event.round
        if (
            round_index is not None
            and self._round is not None
            and round_index != self._round
        ):
            self._flag(
                index,
                f"{kind} tagged round {round_index} inside "
                f"round {self._round}",
            )

        # The process *acting* in this event: the sender of a message
        # on its way out, otherwise the event's own process.
        outgoing = kind == "msg_sent" or kind == "msg_withheld"
        pid = event.pid
        actor = event.peer if outgoing else pid
        if self._halted and actor is not None and actor in self._halted:
            self._flag(index, f"{kind} involving p{actor} after its halt")

        if outgoing:
            if self._crash_round or self._crash_time:
                self._check_sender_alive(index, actor, round_index, time)
        elif kind == "halt":
            if pid in self._crash_round or pid in self._crash_time:
                self._flag(index, f"halt of crashed process p{pid}")
            self._halted.add(pid)
        elif kind == "crash":
            self._feed_crash(index, event)
        elif kind == "decide":
            crash = self._crash_round.get(pid)
            if (
                crash is not None
                and round_index is not None
                and round_index > crash
            ):
                self._flag(
                    index,
                    f"p{pid} decides in round {round_index} after "
                    f"crashing in round {crash}",
                )
        elif kind == "msg_delivered" or kind == "suspect":
            # Step-model actors stop stepping at their crash time;
            # round-model deliveries may target crashed recipients, so
            # only the time-tagged form is checked.
            crash_time = self._crash_time.get(pid)
            if (
                crash_time is not None
                and time is not None
                and time >= crash_time
            ):
                self._flag(
                    index,
                    f"p{pid} {kind} at time {time} after "
                    f"crashing at time {crash_time}",
                )

    def _feed_round_start(self, index: int, event: Event) -> None:
        round_index = event.round
        if round_index is None:
            self._flag(index, "round_start without a round number")
            return
        if self._round is None:
            if round_index != 1:
                self._flag(
                    index,
                    f"first round_start is round {round_index}, expected 1",
                )
        elif round_index != self._round + 1:
            self._flag(
                index,
                f"round_start {round_index} follows round {self._round} "
                "(rounds must increase by exactly 1)",
            )
        if self._round is None or round_index > self._round:
            self._round = round_index
        if isinstance(event.value, (list, tuple)):
            alive = set(event.value)
            if self._n is None and round_index == 1:
                self._n = len(alive)
            if self._n is not None:
                expected = set(range(self._n)) - {
                    pid
                    for pid, crash in self._crash_round.items()
                    if crash < round_index
                }
                if alive != expected:
                    self._flag(
                        index,
                        f"round {round_index} alive list {sorted(alive)} "
                        f"does not match crash history "
                        f"(expected {sorted(expected)})",
                    )

    def _feed_crash(self, index: int, event: Event) -> None:
        pid = event.pid
        if pid in self._crash_round or pid in self._crash_time:
            self._flag(index, f"p{pid} crashes twice")
            return
        if event.round is not None:
            self._crash_round[pid] = event.round
        elif event.time is not None:
            self._crash_time[pid] = event.time
        else:
            self._flag(index, f"crash of p{pid} carries neither round nor time")

    def _check_sender_alive(
        self,
        index: int,
        sender: int | None,
        round_index: int | None,
        time: int | None,
    ) -> None:
        crash = self._crash_round.get(sender)
        if crash is not None and round_index is not None and round_index > crash:
            self._flag(
                index,
                f"message from p{sender} in round {round_index} after its "
                f"crash in round {crash}",
            )
        crash_time = self._crash_time.get(sender)
        if crash_time is not None and time is not None and time >= crash_time:
            self._flag(
                index,
                f"message from p{sender} at time {time} after its "
                f"crash at time {crash_time}",
            )


class DetectorAccuracyChecker(TraceChecker):
    """P strong accuracy: no suspicion may precede the peer's crash."""

    name = "detector.accuracy"
    kinds = frozenset({"crash", "suspect"})

    def __init__(self) -> None:
        super().__init__()
        self._crashed: set[int] = set()

    def feed(self, index: int, event: Event) -> None:
        if event.kind == "crash":
            self._crashed.add(event.pid)
        elif event.kind == "suspect" and event.peer not in self._crashed:
            self._flag(
                index,
                f"p{event.pid} suspects p{event.peer} before any crash of "
                f"p{event.peer} (strong accuracy)",
            )


class DetectorCompletenessChecker(TraceChecker):
    """P strong completeness: crashed processes get suspected by all.

    On a finite prefix a missing suspicion may simply not have happened
    *yet* (or the would-be suspector finished and stopped querying its
    module), so misses are warnings.  The checker is vacuous on traces
    with no ``suspect`` events at all — those runs have no detector
    (round model, SS).
    """

    name = "detector.completeness"

    def __init__(self) -> None:
        super().__init__()
        self._universe: set[int] = set()
        self._crashes: list[tuple[int, int]] = []  # (index, pid)
        self._suspected_by: dict[int, set[int]] = {}

    def feed(self, index: int, event: Event) -> None:
        if event.pid is not None:
            self._universe.add(event.pid)
        if event.peer is not None:
            self._universe.add(event.peer)
        if event.kind == "crash":
            self._crashes.append((index, event.pid))
        elif event.kind == "suspect":
            self._suspected_by.setdefault(event.peer, set()).add(event.pid)

    def finish(self, num_events: int) -> None:
        if not self._suspected_by:
            return  # no detector in this trace
        crashed = {pid for _, pid in self._crashes}
        correct = self._universe - crashed
        for index, dead in self._crashes:
            for pid in sorted(correct):
                if pid not in self._suspected_by.get(dead, set()):
                    self._flag(
                        index,
                        f"p{dead} crashed but p{pid} never suspects it "
                        "within this trace (strong completeness, finite "
                        "prefix)",
                        severity="warning",
                    )


class RoundSynchronyChecker(TraceChecker):
    """RS round synchrony: withheld messages only from crashed senders.

    In RS a message that reached the network is delivered in its round,
    so a ``msg_withheld`` event is only ever explainable by a hand-made
    trace whose sender was already dead — anything else is a synchrony
    violation.
    """

    name = "synchrony.rs"
    kinds = frozenset({"crash", "msg_withheld"})

    def __init__(self) -> None:
        super().__init__()
        self._crash_round: dict[int, int] = {}

    def feed(self, index: int, event: Event) -> None:
        if event.kind == "crash" and event.round is not None:
            self._crash_round.setdefault(event.pid, event.round)
        elif event.kind == "msg_withheld":
            crash = self._crash_round.get(event.peer)
            if crash is None or event.round is None or crash >= event.round:
                self._flag(
                    index,
                    f"round synchrony violated: message from p{event.peer} "
                    f"withheld in round {event.round} although the sender "
                    "had not crashed in an earlier round",
                )


class WeakRoundSynchronyChecker(TraceChecker):
    """RWS weak round synchrony (Lemma 4.1).

    A message withheld in round ``k`` from a recipient that survives
    the round implies its sender crashes by the end of round ``k + 1``.
    Round-model crashes are checked against the exact bound; a
    step-model crash (``time``-tagged, as lifted SP-emulation traces
    carry) discharges the obligation, with the exact round bound left
    to :func:`repro.emulation.check_emulated_weak_round_synchrony`,
    which sees the full step run.

    A run that quiesces (everyone decided) before round ``k + 2`` never
    executes the round the crash was scheduled for, so a missing crash
    is only an *error* when the trace proves round ``k + 1`` is over
    (some event carries a later round); otherwise the obligation is
    unsettled on this finite prefix and reported as a warning.
    """

    name = "synchrony.rws"

    def __init__(self) -> None:
        super().__init__()
        self._withheld: list[tuple[int, int, int, int]] = []
        self._crash_round: dict[int, int] = {}
        self._crash_time: dict[int, int] = {}
        self._max_round: int = 0

    def feed(self, index: int, event: Event) -> None:
        if event.round is not None:
            self._max_round = max(self._max_round, event.round)
        if event.kind == "crash":
            if event.round is not None:
                self._crash_round.setdefault(event.pid, event.round)
            elif event.time is not None:
                self._crash_time.setdefault(event.pid, event.time)
        elif event.kind == "msg_withheld" and event.round is not None:
            self._withheld.append((index, event.round, event.peer, event.pid))

    def finish(self, num_events: int) -> None:
        for index, round_index, sender, recipient in self._withheld:
            recipient_crash = self._crash_round.get(recipient)
            if recipient_crash is not None and recipient_crash <= round_index:
                continue  # the recipient did not survive the round
            sender_crash = self._crash_round.get(sender)
            if sender_crash is not None and sender_crash <= round_index + 1:
                continue
            if sender in self._crash_time:
                continue  # step-model crash: bound checked on the step run
            if sender_crash is None and self._max_round < round_index + 2:
                self._flag(
                    index,
                    f"message from p{sender} withheld in round "
                    f"{round_index} and the trace ends before round "
                    f"{round_index + 2}: the crash-by-round-"
                    f"{round_index + 1} obligation is unsettled on this "
                    "prefix",
                    severity="warning",
                )
                continue
            self._flag(
                index,
                "weak round synchrony violated: message from "
                f"p{sender} withheld in round {round_index} but the sender "
                f"does not crash by the end of round {round_index + 1}",
            )


class ConsensusChecker(TraceChecker):
    """The clauses of :mod:`repro.consensus.clauses` over a trace.

    A trace carries its run's decisions (each process's first
    ``decide``) and faulty set (its ``crash`` events) but not its
    inputs, so *validity* and *termination* are judged only when the
    initial values are supplied; then every process ``0 .. n-1`` that
    does not crash must decide.  *Uniform agreement* counts a process
    that decides and then crashes (the paper's Section 5.3 move);
    *agreement* does not.  Deciding twice is this checker's own clause.
    """

    name = "consensus"
    kinds = frozenset({"crash", "decide"})

    def __init__(self, initial_values: Sequence[Any] | None = None) -> None:
        super().__init__()
        self.initial_values = (
            tuple(initial_values) if initial_values is not None else None
        )
        #: ``pid -> (round, value)`` and event index of each first decide.
        self._decisions: dict[int, tuple[Any, Any]] = {}
        self._index: dict[int, int] = {}
        self._crashed: set[int] = set()

    def feed(self, index: int, event: Event) -> None:
        if event.kind == "crash":
            self._crashed.add(event.pid)
        elif event.kind == "decide":
            if event.pid in self._decisions:
                self._flag(index, f"p{event.pid} decides twice")
            else:
                self._decisions[event.pid] = (event.round, event.value)
                self._index[event.pid] = index

    def _violated(self, index: int, clause: str, message: str) -> None:
        self.violations.append(
            Violation(
                self.name, index, f"{clause} violated: {message}", clause=clause
            )
        )

    def finish(self, num_events: int) -> None:
        decisions, inputs = self._decisions, self.initial_values
        processes = decisions if inputs is None else range(len(inputs))
        correct = [pid for pid in processes if pid not in self._crashed]
        if inputs is not None:
            for pid in clauses.validity(decisions, inputs):
                self._violated(
                    self._index[pid],
                    "validity",
                    f"p{pid} decides {decisions[pid][1]!r}, not an initial "
                    "value",
                )
        for clause, pids in (
            ("agreement", clauses.agreement(decisions, correct)),
            ("uniform agreement", clauses.uniform_agreement(decisions)),
        ):
            # Each decide that differs from the earliest one's value.
            ordered = sorted((self._index[pid], pid) for pid in pids)
            for index, pid in ordered[1:]:
                first_index, first = ordered[0]
                value, reference = decisions[pid][1], decisions[first][1]
                if value != reference:
                    self._violated(
                        index,
                        clause,
                        f"p{pid} decides {value!r} but p{first} decided "
                        f"{reference!r} (event {first_index})",
                    )
        if inputs is not None:
            for pid in clauses.termination(decisions, correct):
                self._violated(
                    -1, "termination", f"p{pid} never decides and does not crash"
                )


def default_checkers(
    *,
    model: Any = None,
    initial_values: Sequence[Any] | None = None,
) -> list[TraceChecker]:
    """The standard oracle suite for one trace.

    ``model`` selects the synchrony checker: ``"RS"``, ``"RWS"``, a
    :class:`~repro.rounds.executor.RoundModel`, or ``None`` to apply
    the weak variant, which is sound for both models (an RS trace has
    no withheld messages, so it passes vacuously).
    """
    model_name = getattr(model, "value", model)
    if model_name is not None:
        model_name = str(model_name).upper()
    if model_name not in (None, "RS", "RWS"):
        raise ValueError(f"unknown round model {model!r}")
    checkers: list[TraceChecker] = [
        OrderingChecker(),
        DetectorAccuracyChecker(),
        DetectorCompletenessChecker(),
        (
            RoundSynchronyChecker()
            if model_name == "RS"
            else WeakRoundSynchronyChecker()
        ),
        ConsensusChecker(initial_values),
    ]
    return checkers


def run_checkers(
    events: Iterable[Event], checkers: Sequence[TraceChecker]
) -> CheckReport:
    """Stream ``events`` through ``checkers`` and collect the report.

    An event reaches the checkers that declared its kind
    (:attr:`TraceChecker.kinds`), in suite order.
    """
    feeds: dict[str, tuple[Callable[[int, Event], None], ...]] = {}
    index = -1
    for index, event in enumerate(events):
        kind = event.kind
        try:
            row = feeds[kind]
        except KeyError:
            row = feeds[kind] = tuple(
                checker.feed
                for checker in checkers
                if checker.kinds is None or kind in checker.kinds
            )
        for feed in row:
            feed(index, event)
    count = index + 1
    violations: list[Violation] = []
    for checker in checkers:
        checker.finish(count)
        violations.extend(checker.violations)
    violations.sort(key=lambda v: (v.index, v.checker))
    return CheckReport(
        checkers=tuple(checker.name for checker in checkers),
        num_events=count,
        violations=violations,
    )


def check_events(
    events: Sequence[Event],
    *,
    model: Any = None,
    initial_values: Sequence[Any] | None = None,
) -> CheckReport:
    """Run the default oracle suite over an event sequence.

    Every checker but ``consensus`` ignores event values, so for a
    :class:`~repro.obs.template.TemplateEvents` trace they run once per
    template and model (remembered in the template's memo); per cell
    only the consensus checker runs, over the events of its
    :attr:`~TraceChecker.kinds`: the template's own plus the cell's
    decide events in the template's holes.  The report is
    field-identical to checking the materialized events.
    """
    checkers = default_checkers(model=model, initial_values=initial_values)
    template = getattr(events, "template", None)
    if template is None:
        return run_checkers(events, checkers)
    consensus = next(c for c in checkers if c.name == ConsensusChecker.name)
    value_free = [c for c in checkers if c is not consensus]

    def value_free_work() -> tuple[list[Violation], list[tuple[int, Event]]]:
        holes = set(template.positions)
        return (
            run_checkers(template.events, value_free).violations,
            [
                (index, event)
                for index, event in enumerate(template.events)
                if event.kind in consensus.kinds and index not in holes
            ],
        )

    violations, shared = template.remember(
        # The synchrony checker's name tells the models apart.
        ("check", *(checker.name for checker in value_free)),
        value_free_work,
    )
    decides = zip(template.positions, events.decides())
    for index, event in sorted([*shared, *decides], key=lambda pair: pair[0]):
        consensus.feed(index, event)
    consensus.finish(len(events))
    return CheckReport(
        checkers=tuple(checker.name for checker in checkers),
        num_events=len(events),
        violations=sorted(
            [*violations, *consensus.violations],
            key=lambda v: (v.index, v.checker),
        ),
    )


def ordering_problems(events: Sequence[Event]) -> list[str]:
    """Formatted ordering violations only — the shape
    ``scripts/check_trace.py`` reports next to schema problems."""
    report = run_checkers(events, [OrderingChecker()])
    return [violation.describe() for violation in report.violations]
