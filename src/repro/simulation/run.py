"""Run records: the tuple ⟨F, C0, S, T⟩ of the paper, finitely truncated.

A :class:`Run` bundles the failure pattern, the initial configuration,
the executed schedule prefix, and (in detector models) the history that
was queried.  Validators and problem specifications consume runs; they
never need the executor that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.failures.history import FailureDetectorHistory
from repro.failures.pattern import FailurePattern
from repro.simulation.message import Message
from repro.simulation.schedule import Schedule


@dataclass
class Run:
    """A finite prefix of a run of some algorithm.

    Attributes:
        n: Number of processes.
        pattern: The failure pattern ``F``.
        schedule: The executed step sequence ``S`` (with times ``T``
            embedded: ``time == index``).
        initial_states: The initial configuration ``C0`` (buffers start
            empty by definition).
        final_states: Process states after the last executed step.
        messages: Every message ever sent, by uid.
        undelivered: Per-process messages still buffered at the end.
        history: The failure-detector history used, or ``None``.
        state_snapshots: Optional per-step state of the stepping
            process *after* its step (recorded when the executor is
            asked to; index-aligned with ``schedule.steps``).
    """

    n: int
    pattern: FailurePattern
    schedule: Schedule
    initial_states: dict[int, Any]
    final_states: dict[int, Any]
    messages: dict[int, Message] = field(default_factory=dict)
    undelivered: dict[int, tuple[Message, ...]] = field(default_factory=dict)
    history: FailureDetectorHistory | None = None
    state_snapshots: list[Any] | None = None

    def steps_of(self, pid: int) -> list:
        """Return ``S_i``, the projection of the schedule on ``pid``."""
        return self.schedule.projection(pid)

    def messages_sent_by(self, pid: int) -> list[Message]:
        return [m for m in self.messages.values() if m.sender == pid]

    def undelivered_to_correct(self) -> list[Message]:
        """Messages addressed to correct processes but never delivered.

        On an *admissible* infinite run this list would be empty; on a
        finite prefix a non-empty list flags that the horizon may have
        been too short (or the scheduler inadmissible).
        """
        return [
            m
            for pid, pending in self.undelivered.items()
            if pid in self.pattern.correct
            for m in pending
        ]
