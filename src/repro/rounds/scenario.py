"""Failure scenarios: the reified adversary of the round models.

A :class:`FailureScenario` captures every nondeterministic choice of a
round-model execution:

* which processes crash, in which round;
* which recipients a crashing process still managed to send to;
* whether a crashing process completed its transition (and could thus
  decide) before dying;
* which sent messages become *pending* (RWS only).

Scenarios are plain immutable data, independent of any algorithm.  That
is what lets :mod:`repro.rounds.enumeration` enumerate the complete
adversary space for small systems, turning the paper's worst-case /
best-case latency definitions into exact computations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ScenarioError


@dataclass(frozen=True)
class CrashEvent:
    """The crash of one process.

    Attributes:
        pid: The crashing process.
        round: The 1-based round during which it crashes.  ``round=1``
            with ``sent_to=()`` and ``applies_transition=False`` is an
            *initially dead* process.
        sent_to: Recipients (other than itself) that its round-``round``
            messages actually reached the network for.  A crash in the
            middle of a broadcast reaches an arbitrary subset — this is
            the subset.
        applies_transition: Whether the process completed the round's
            receive/transition phase before crashing.  Only a process
            that finished all its sends may do so, hence this requires
            ``sent_to`` to be all other processes.  A process that
            applies its transition can *decide and then crash* — the
            scenario at the heart of uniform (vs plain) agreement.
    """

    pid: int
    round: int
    sent_to: frozenset[int] = frozenset()
    applies_transition: bool = False

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ScenarioError(
                f"crash round must be >= 1, got {self.round} for p{self.pid}"
            )
        if self.pid in self.sent_to:
            raise ScenarioError(
                f"sent_to of p{self.pid} must not contain itself"
            )

    def reaches(self, recipient: int) -> bool:
        """Whether the crash-round message to ``recipient`` reaches the
        network: a process crashing mid-broadcast only reaches its
        ``sent_to`` set, and its self-addressed message exists only if
        it lives long enough to read it (``applies_transition``)."""
        if recipient == self.pid:
            return self.applies_transition
        return recipient in self.sent_to


@dataclass(frozen=True)
class PendingMessage:
    """A message sent in ``round`` from ``sender`` to ``recipient`` that
    is never delivered (RWS only)."""

    sender: int
    recipient: int
    round: int

    def __post_init__(self) -> None:
        if self.sender == self.recipient:
            raise ScenarioError("a self-addressed message cannot be pending")
        if self.round < 1:
            raise ScenarioError("pending round must be >= 1")


def _last_completed_round(event: CrashEvent) -> int:
    """The last round whose transition the crashing process applies.

    A process crashing in round ``r`` completes round ``r`` when it
    applies that round's transition, and round ``r - 1`` otherwise.
    """
    return event.round if event.applies_transition else event.round - 1


@dataclass(frozen=True)
class FailureScenario:
    """A complete adversary decision for one round-model run."""

    n: int
    crashes: tuple[CrashEvent, ...] = ()
    pending: frozenset[PendingMessage] = frozenset()

    def __post_init__(self) -> None:
        # Canonical crash order (by pid): the adversary's choices are a
        # *set* of events, so equality and hashing must not depend on
        # construction order.
        object.__setattr__(
            self,
            "crashes",
            tuple(sorted(self.crashes, key=lambda event: event.pid)),
        )
        object.__setattr__(self, "pending", frozenset(self.pending))

    # -- queries --------------------------------------------------------------

    def crash_of(self, pid: int) -> CrashEvent | None:
        for event in self.crashes:
            if event.pid == pid:
                return event
        return None

    def crash_round(self, pid: int) -> int | None:
        event = self.crash_of(pid)
        return event.round if event is not None else None

    @property
    def faulty(self) -> frozenset[int]:
        return frozenset(event.pid for event in self.crashes)

    @property
    def correct(self) -> frozenset[int]:
        return frozenset(range(self.n)) - self.faulty

    def num_failures(self) -> int:
        return len(self.crashes)

    def alive_at_start(self, pid: int, round_index: int) -> bool:
        """True iff ``pid`` begins round ``round_index`` (1-based)."""
        crash = self.crash_round(pid)
        return crash is None or crash >= round_index

    def alive_at_end(self, pid: int, round_index: int) -> bool:
        """True iff ``pid`` completes round ``round_index``.

        A process crashing in round ``r`` with ``applies_transition``
        counts as completing round ``r`` (it observed the round's full
        message vector) but not as beginning round ``r+1``.
        """
        event = self.crash_of(pid)
        if event is None or event.round > round_index:
            return True
        if event.round == round_index:
            return event.applies_transition
        return False

    def initially_dead(self) -> frozenset[int]:
        return frozenset(
            event.pid
            for event in self.crashes
            if event.round == 1
            and not event.sent_to
            and not event.applies_transition
        )

    def describe(self) -> str:
        if not self.crashes and not self.pending:
            return "failure-free"
        parts = []
        for event in sorted(self.crashes, key=lambda e: e.pid):
            extra = "+trans" if event.applies_transition else ""
            parts.append(
                f"p{event.pid}@r{event.round}"
                f"(sent={sorted(event.sent_to)}{extra})"
            )
        for pend in sorted(self.pending, key=lambda m: (m.round, m.sender)):
            parts.append(
                f"pend(r{pend.round}:{pend.sender}->{pend.recipient})"
            )
        return ", ".join(parts)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def failure_free(cls, n: int) -> "FailureScenario":
        return cls(n=n)

    @classmethod
    def initially_dead_set(cls, n: int, pids: frozenset[int] | set[int]) -> "FailureScenario":
        return cls(
            n=n,
            crashes=tuple(
                CrashEvent(pid=pid, round=1) for pid in sorted(pids)
            ),
        )


def validate_scenario(
    scenario: FailureScenario,
    *,
    t: int,
    allow_pending: bool,
    horizon: int | None = None,
) -> list[str]:
    """Check a scenario's internal consistency and model admissibility.

    Returns a list of violation messages (empty when valid):

    * no duplicate crashes, pids in range, at most ``t`` crashes;
    * ``applies_transition`` only after a complete send;
    * RS scenarios must have no pending messages;
    * every pending message must actually be *sent* (its sender is alive
      in that round and, if crashing that round, included the recipient
      in ``sent_to``);
    * **weak round synchrony**: a message pending towards a process
      alive at the end of its round forces the sender to crash by the
      end of the following round.
    """
    problems: list[str] = []
    n = scenario.n
    seen: set[int] = set()
    for event in scenario.crashes:
        if not 0 <= event.pid < n:
            problems.append(f"crash of unknown process {event.pid}")
            continue
        if event.pid in seen:
            problems.append(f"process {event.pid} crashes twice")
        seen.add(event.pid)
        if any(not 0 <= q < n for q in event.sent_to):
            problems.append(
                f"p{event.pid} sent_to references unknown processes"
            )
        full = frozenset(range(n)) - {event.pid}
        if event.applies_transition and event.sent_to != full:
            problems.append(
                f"p{event.pid} applies its transition without having "
                "completed its sends"
            )
        if horizon is not None and event.round > horizon + 1:
            problems.append(
                f"p{event.pid} crashes in round {event.round}, beyond the "
                f"horizon {horizon}"
            )
    if len(seen) > t:
        problems.append(
            f"{len(seen)} crashes exceed the resilience bound t={t}"
        )
    if len(seen) >= n:
        problems.append("at least one process must be correct")

    if scenario.pending and not allow_pending:
        problems.append("pending messages are not allowed in the RS model")

    for pend in scenario.pending:
        if not (0 <= pend.sender < n and 0 <= pend.recipient < n):
            problems.append(f"pending message references unknown processes")
            continue
        sender_crash = scenario.crash_of(pend.sender)
        # The message must have been sent at all.
        if sender_crash is not None:
            if sender_crash.round < pend.round:
                problems.append(
                    f"pending message in round {pend.round} from p"
                    f"{pend.sender}, which crashed in round "
                    f"{sender_crash.round} and sent nothing"
                )
                continue
            if (
                sender_crash.round == pend.round
                and pend.recipient not in sender_crash.sent_to
            ):
                problems.append(
                    f"pending message r{pend.round}:{pend.sender}->"
                    f"{pend.recipient} was never sent (recipient outside "
                    "the crash's sent_to)"
                )
                continue
        # Weak round synchrony.
        if scenario.alive_at_end(pend.recipient, pend.round):
            if sender_crash is None or sender_crash.round > pend.round + 1:
                problems.append(
                    "weak round synchrony violated: message "
                    f"r{pend.round}:{pend.sender}->{pend.recipient} is "
                    f"pending towards a live process but the sender does "
                    f"not crash by round {pend.round + 1}"
                )
            elif _last_completed_round(sender_crash) > pend.round:
                # In the SP emulation the recipient's suspicion proves the
                # sender crashed before the recipient finished round
                # ``pend.round`` — and the sender can only complete a
                # *later* round's transition after receiving that
                # recipient's message from the later round, which is sent
                # even later.  So the sender may still send in round
                # ``pend.round + 1`` but can never apply its transition.
                problems.append(
                    "emulation-impossible scenario: message "
                    f"r{pend.round}:{pend.sender}->{pend.recipient} is "
                    f"pending towards a live process, yet the sender "
                    "completes a transition after that round"
                )
    return problems
