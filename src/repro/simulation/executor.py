"""The step executor: drives automata under a scheduler and a pattern.

This is the kernel's single execution engine.  Model differences
(asynchrony, SS, SP) enter exclusively through the scheduler and the
optional failure-detector history, matching the paper's framing where
"system models are defined according to the way algorithms execute".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, ScheduleError
from repro.failures.history import FailureDetectorHistory
from repro.failures.pattern import FailurePattern
from repro.obs.events import EventLog
from repro.obs.profile import profiled
from repro.simulation.automaton import StepAutomaton, StepContext
from repro.simulation.message import Message
from repro.simulation.run import Run
from repro.simulation.schedule import Schedule, Step
from repro.simulation.schedulers import Scheduler, SchedulerView


@dataclass
class ProcessColumns:
    """The step executor's mutable run state, one column per field.

    Index-addressed parallel lists (position = pid), applied to the
    step kernel's object states.  States hold arbitrary automaton
    objects, so the columns stay plain
    Python lists; what the layout buys is a single state-store seam:
    every per-process update in the executor goes through one indexed
    structure instead of three ad-hoc dicts.
    """

    states: list[Any]
    buffers: list[list[Message]]
    local_steps: list[int]

    @classmethod
    def initial(
        cls, automata: Sequence[StepAutomaton], n: int
    ) -> "ProcessColumns":
        return cls(
            states=[
                automata[pid].initial_state(pid, n) for pid in range(n)
            ],
            buffers=[[] for _ in range(n)],
            local_steps=[0] * n,
        )

    def states_dict(self) -> dict[int, Any]:
        """The ``pid -> state`` mapping callers and :class:`Run` expect."""
        return dict(enumerate(self.states))

    def buffer_views(self) -> dict[int, tuple[Message, ...]]:
        """Immutable per-process buffer snapshots (scheduler/run views)."""
        return {
            pid: tuple(buffered)
            for pid, buffered in enumerate(self.buffers)
        }


class StepExecutor:
    """Execute an algorithm step by step until a stop condition.

    Args:
        automata: Either one automaton shared by all processes or a
            sequence of ``n`` automata, one per process (heterogeneous
            algorithms, e.g. the SDD sender/receiver pair).
        n: Number of processes.
        pattern: The failure pattern governing crashes.
        scheduler: Decides interleaving and message delivery.
        history: Failure-detector history to expose in each step's query
            phase (``None`` for detector-free models).
        record_states: If True, snapshot the stepping process's state
            after every step (used by fine-grained validators; costs
            memory on long runs).
        observer: Optional :class:`~repro.obs.EventLog` recording the
            run's structured events (``msg_sent``, ``msg_delivered``,
            ``crash``, ``suspect``); ``None`` (default) costs nothing.
    """

    def __init__(
        self,
        automata: StepAutomaton | Sequence[StepAutomaton],
        n: int,
        pattern: FailurePattern,
        scheduler: Scheduler,
        *,
        history: FailureDetectorHistory | None = None,
        record_states: bool = False,
        observer: EventLog | None = None,
    ) -> None:
        if n <= 0:
            raise ConfigurationError(f"n must be positive, got {n}")
        if pattern.n != n:
            raise ConfigurationError(
                f"pattern is over {pattern.n} processes, executor over {n}"
            )
        if isinstance(automata, StepAutomaton):
            self._automata: list[StepAutomaton] = [automata] * n
        else:
            if len(automata) != n:
                raise ConfigurationError(
                    f"expected {n} automata, got {len(automata)}"
                )
            self._automata = list(automata)
        self.n = n
        self.pattern = pattern
        self.scheduler = scheduler
        self.history = history
        self.record_states = record_states
        self.observer = observer

    def execute(
        self,
        max_steps: int,
        *,
        stop_when: Callable[[dict[int, Any]], bool] | None = None,
    ) -> Run:
        """Run for at most ``max_steps`` steps and return the run record.

        The run also ends when the scheduler returns ``None``, when no
        process is alive, or when ``stop_when(states)`` becomes true
        (checked after every step).
        """
        with profiled("simulation.execute"):
            return self._execute(max_steps, stop_when=stop_when)

    def _execute(
        self,
        max_steps: int,
        *,
        stop_when: Callable[[dict[int, Any]], bool] | None = None,
    ) -> Run:
        columns = ProcessColumns.initial(self._automata, self.n)
        initial_states = columns.states_dict()
        schedule = Schedule(n=self.n)
        messages: dict[int, Message] = {}
        snapshots: list[Any] | None = [] if self.record_states else None
        next_uid = 0
        observer = self.observer
        prev_alive = frozenset(range(self.n)) if observer is not None else None
        seen_suspects: dict[int, frozenset[int]] = {}

        for index in range(max_steps):
            time = index
            alive = frozenset(
                pid for pid in range(self.n)
                if self.pattern.is_alive(pid, time)
            )
            if observer is not None and prev_alive is not None:
                for crashed in sorted(prev_alive - alive):
                    observer.crash(crashed, time=time)
                prev_alive = alive
            if not alive:
                break
            view = SchedulerView(
                time=time,
                n=self.n,
                alive=alive,
                buffers=columns.buffer_views(),
                local_steps=dict(enumerate(columns.local_steps)),
            )
            choice = self.scheduler.choose(view)
            if choice is None:
                break
            pid = choice.pid
            if pid not in alive:
                raise ScheduleError(
                    f"scheduler chose crashed process {pid} at time {time}"
                )

            delivered, remaining = self._split_delivery(
                columns.buffers[pid], choice.deliver_uids, time
            )
            columns.buffers[pid] = remaining
            columns.local_steps[pid] += 1

            suspects = (
                self.history.suspects(pid, time)
                if self.history is not None
                else None
            )
            if observer is not None:
                for message in delivered:
                    observer.msg_delivered(
                        message.sender, message.recipient, time=time
                    )
                if suspects is not None:
                    fresh = suspects - seen_suspects.get(pid, frozenset())
                    for suspected in sorted(fresh):
                        crash_time = self.pattern.crash_times.get(suspected)
                        observer.suspect(
                            pid,
                            suspected,
                            time=time,
                            delay=(
                                time - crash_time
                                if crash_time is not None
                                else None
                            ),
                        )
                    seen_suspects[pid] = suspects
            ctx = StepContext(
                pid=pid,
                n=self.n,
                state=columns.states[pid],
                received=tuple(delivered),
                local_step=columns.local_steps[pid],
                suspects=suspects,
            )
            outcome = self._automata[pid].on_step(ctx)
            columns.states[pid] = outcome.state

            sent_uid: int | None = None
            sent_to: int | None = None
            if outcome.send_to is not None:
                sent_to = outcome.send_to
                if not 0 <= sent_to < self.n:
                    raise ScheduleError(
                        f"process {pid} sent to unknown process {sent_to}"
                    )
                message = Message(
                    uid=next_uid,
                    sender=pid,
                    recipient=sent_to,
                    payload=outcome.payload,
                    sent_step=index,
                )
                next_uid += 1
                messages[message.uid] = message
                columns.buffers[sent_to].append(message)
                sent_uid = message.uid
                if observer is not None:
                    observer.msg_sent(pid, sent_to, time=time)

            schedule.append(
                Step(
                    index=index,
                    time=time,
                    pid=pid,
                    received_uids=tuple(m.uid for m in delivered),
                    sent_uid=sent_uid,
                    sent_to=sent_to,
                    local_step=columns.local_steps[pid],
                    suspects=suspects,
                )
            )
            if snapshots is not None:
                snapshots.append(columns.states[pid])
            if stop_when is not None and stop_when(columns.states_dict()):
                break

        return Run(
            n=self.n,
            pattern=self.pattern,
            schedule=schedule,
            initial_states=initial_states,
            final_states=columns.states_dict(),
            messages=messages,
            undelivered=columns.buffer_views(),
            history=self.history,
            state_snapshots=snapshots,
        )

    @staticmethod
    def _split_delivery(
        buffered: list[Message],
        deliver_uids: frozenset[int] | None,
        time: int,
    ) -> tuple[list[Message], list[Message]]:
        """Partition a buffer into (delivered now, still pending)."""
        if deliver_uids is None:
            return list(buffered), []
        delivered: list[Message] = []
        remaining: list[Message] = []
        for message in buffered:
            if message.uid in deliver_uids:
                delivered.append(message)
            else:
                remaining.append(message)
        missing = deliver_uids - {m.uid for m in delivered}
        if missing:
            raise ScheduleError(
                f"scheduler delivered unknown message uids {sorted(missing)} "
                f"at time {time}"
            )
        return delivered, remaining
