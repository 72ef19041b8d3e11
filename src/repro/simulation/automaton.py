"""Process automata for the step-level kernel.

An algorithm (paper Section 2.2) is a collection of ``n`` deterministic
automata, one per process.  Each automaton exposes an initial state and a
step function.  Determinism is required by the paper's definitions and is
what makes indistinguishability arguments (and our mechanical replays of
them) possible: a process's behaviour is a function of its initial state
and the sequence of message sets (plus failure-detector values) it
observes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.simulation.message import Message


@dataclass(frozen=True)
class StepContext:
    """Everything an automaton may observe during one step.

    Attributes:
        pid: Index of the process taking the step.
        n: Total number of processes in the system.
        state: The process state at the beginning of the step.
        received: Messages delivered in this step (possibly empty).
        local_step: How many steps this process has taken so far,
            counting this one (1 for the first step).  Processes do not
            have access to the global clock (paper Section 2), but they
            may count their own steps; the SS algorithm for SDD relies
            on exactly this.
        suspects: The set of processes currently suspected by this
            process's failure-detector module, or ``None`` when the run
            takes place in a model without failure detectors.
    """

    pid: int
    n: int
    state: Any
    received: tuple[Message, ...]
    local_step: int
    suspects: frozenset[int] | None = None


@dataclass(frozen=True)
class StepOutcome:
    """The result of one step: a new state and at most one send.

    Per the paper's step semantics a process "may send a message to a
    single process" in each step; broadcast therefore costs ``n`` steps
    at this level (which is precisely why the round emulation of
    Section 4.1 charges ``n + k`` steps per round).

    Attributes:
        state: The process state after the step.
        send_to: Destination process index, or ``None`` for no send.
        payload: Payload of the sent message (ignored when ``send_to``
            is ``None``).
    """

    state: Any
    send_to: int | None = None
    payload: Any = None


class StepAutomaton(ABC):
    """Deterministic automaton run by one (or all) process(es).

    A single :class:`StepAutomaton` instance may serve all processes
    (the common case: the automaton dispatches on ``ctx.pid``), or the
    executor may be given one instance per process.
    """

    @abstractmethod
    def initial_state(self, pid: int, n: int) -> Any:
        """Return the initial state for process ``pid`` of ``n``."""

    @abstractmethod
    def on_step(self, ctx: StepContext) -> StepOutcome:
        """Execute one atomic step and return its outcome.

        Implementations must be deterministic functions of ``ctx`` and
        must not mutate ``ctx.state`` in place — they should build and
        return a fresh state (or return the same object unchanged).
        """


class IdleAutomaton(StepAutomaton):
    """An automaton that never changes state and never sends.

    Useful as a placeholder for processes that only consume messages,
    and in kernel tests.
    """

    def initial_state(self, pid: int, n: int) -> Any:
        return None

    def on_step(self, ctx: StepContext) -> StepOutcome:
        return StepOutcome(state=ctx.state)
