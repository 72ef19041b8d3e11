"""Time-freeness, mechanised (paper Section 2.7).

A problem is *time-free* when its verdict on a run depends only on the
per-process step projections ``S_i`` — not on the global interleaving
or on the step-time list ``T``.  The paper restricts attention to such
problems (SDD and uniform consensus among them) because they are the
ones for which comparing SS and SP is meaningful.

This module makes the definition executable.  From a finished run we
extract its *causal structure*: each process's step sequence, what each
step received (as per-sender message counts — channels are FIFO in the
kernel, so counts identify messages), and the send→receive edges
across processes.  Any linear extension of that partial order is a
legal rescheduling with identical projections; re-executing the same
deterministic algorithm under a random linear extension must reproduce
every process's local view (:func:`repro.obs.diff.local_view`, its
causal past) and outcome.  :func:`check_time_free_execution` automates
the comparison — a mechanical witness that the algorithm's behaviour
(and hence any time-free specification's verdict on it) is
interleaving-invariant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.failures.history import FailureDetectorHistory
from repro.failures.pattern import FailurePattern
from repro.obs.diff import local_view
from repro.obs.events import Event, EventLog, logical_clock
from repro.simulation.automaton import StepAutomaton
from repro.simulation.executor import StepExecutor
from repro.simulation.message import Message
from repro.simulation.run import Run
from repro.simulation.schedulers import ScriptedScheduler


@dataclass(frozen=True)
class _StepNode:
    """One step of the original run, in causal-structure form."""

    pid: int
    local_index: int  # 0-based position within the process's projection
    received: tuple[tuple[int, Any], ...]  # (sender, payload) multiset
    depends_on: tuple[tuple[int, int], ...]  # (pid, local_index) of sends


def _causal_structure(run: Run) -> list[_StepNode]:
    """Extract the run's step nodes with their cross-process edges."""
    # Map each message uid to the (pid, local_index) of its sending step.
    send_site: dict[int, tuple[int, int]] = {}
    local_counter = {pid: 0 for pid in range(run.n)}
    step_local: dict[int, tuple[int, int]] = {}
    for step in run.schedule:
        site = (step.pid, local_counter[step.pid])
        step_local[step.index] = site
        local_counter[step.pid] += 1
        if step.sent_uid is not None:
            send_site[step.sent_uid] = site

    nodes: list[_StepNode] = []
    for step in run.schedule:
        received: list[tuple[int, Any]] = []
        depends: list[tuple[int, int]] = []
        for uid in step.received_uids:
            message = run.messages[uid]
            received.append((message.sender, message.payload))
            depends.append(send_site[uid])
        pid, local_index = step_local[step.index]
        nodes.append(
            _StepNode(
                pid=pid,
                local_index=local_index,
                received=tuple(received),
                depends_on=tuple(depends),
            )
        )
    return nodes


def random_linear_extension(
    run: Run, rng: random.Random
) -> list[_StepNode]:
    """A uniform-ish random linear extension of the run's causal order.

    Constraints: each process's steps stay in order, and every step
    follows the steps that sent the messages it receives.
    """
    nodes = _causal_structure(run)
    by_site = {(node.pid, node.local_index): node for node in nodes}
    done: set[tuple[int, int]] = set()
    next_local = {pid: 0 for pid in range(run.n)}
    remaining = len(nodes)
    order: list[_StepNode] = []
    while remaining:
        ready = []
        for pid in range(run.n):
            site = (pid, next_local[pid])
            node = by_site.get(site)
            if node is None:
                continue
            if all(dep in done for dep in node.depends_on):
                ready.append(node)
        if not ready:
            raise ExecutionError(
                "causal structure has no ready step — cyclic dependency "
                "(this indicates a kernel bug)"
            )
        node = rng.choice(ready)
        order.append(node)
        done.add((node.pid, node.local_index))
        next_local[node.pid] += 1
        remaining -= 1
    return order


def _delivery_selector(received: tuple[tuple[int, Any], ...]):
    """Build a ScriptedScheduler selector reproducing a step's exact
    (sender, payload) delivery multiset.

    Matching by content rather than by message uid keeps the replay
    *observation-exact* even when the original scheduler delivered a
    channel's messages out of order: a deterministic automaton cannot
    tell equal payloads apart, so any content-matching choice yields
    the same projection.
    """
    wanted = list(received)

    def select(buffered: Sequence[Message]) -> list[int]:
        pending = list(wanted)
        uids: list[int] = []
        for message in buffered:
            key = (message.sender, message.payload)
            if key in pending:
                pending.remove(key)
                uids.append(message.uid)
        if pending:
            raise ExecutionError(
                f"rescheduled delivery impossible: still owed {pending!r}"
            )
        return uids

    return select


def _execute_script(
    run: Run,
    automata: StepAutomaton | Sequence[StepAutomaton],
    script: Sequence[tuple[int, Any]],
    pattern: FailurePattern,
    observer: EventLog | None = None,
) -> Run:
    """Execute ``script`` under ``pattern``; the i-th step of each
    process sees the suspicion set its i-th step saw in ``run``."""
    suspects: dict[int, list[frozenset | None]] = {
        pid: [] for pid in range(run.n)
    }
    for step in run.schedule:
        suspects[step.pid].append(step.suspects)

    class _ReplayHistory(FailureDetectorHistory):
        def __init__(self) -> None:
            self._next = {pid: iter(seq) for pid, seq in suspects.items()}

        def suspects(self, pid: int, t: int) -> frozenset:
            return next(self._next[pid], None) or frozenset()

    needs_history = any(step.suspects is not None for step in run.schedule)
    return StepExecutor(
        automata,
        run.n,
        pattern,
        ScriptedScheduler(script),
        history=_ReplayHistory() if needs_history else None,
        observer=observer,
    ).execute(len(script))


def _trace(
    run: Run, automata: StepAutomaton | Sequence[StepAutomaton]
) -> list[Event]:
    """The events of ``run``, recorded by re-executing its schedule."""
    log = EventLog(clock=logical_clock())
    script = [(step.pid, step.received_uids) for step in run.schedule]
    _execute_script(run, automata, script, run.pattern, log)
    return log.events


def reexecute_with_projections(
    run: Run,
    automata: StepAutomaton | Sequence[StepAutomaton],
    rng: random.Random,
) -> Run:
    """Re-execute the algorithm under a random projection-preserving
    rescheduling of ``run``.

    The failure pattern is kept, with crash times pushed past the end
    (every step of the original projections must still be takeable; at
    the round/step level the *projections* already encode every effect
    the crashes had).  The detector history, if any, is replayed
    per-process: the i-th step of each process sees the same suspicion
    set as in the original run, which is exactly projection-equivalence
    for the query phase.
    """
    order = random_linear_extension(run, rng)
    script = [(node.pid, _delivery_selector(node.received)) for node in order]
    relaxed = FailurePattern.with_crashes(
        run.n, {pid: len(order) + 1 for pid in run.pattern.faulty}
    )
    return _execute_script(run, automata, script, relaxed)


def check_time_free_execution(
    run: Run,
    automata: StepAutomaton | Sequence[StepAutomaton],
    *,
    outcome: Callable[[Run, int], Any],
    rng: random.Random | None = None,
    attempts: int = 3,
) -> list[str]:
    """Verify per-process views and outcomes survive rescheduling.

    Args:
        run: The original finished run.
        automata: The same (deterministic) algorithm that produced it.
        outcome: Maps ``(run, pid)`` to the value that must be
            preserved — e.g. the process's decision.
        rng: Randomness for picking linear extensions.
        attempts: Number of independent reschedulings to try.

    Every process's :func:`repro.obs.diff.local_view` must be the same
    in the original run and in each replay (each recorded by
    re-executing its own schedule) — a rescheduling moves no causal
    past — and so must its outcome.  Returns a list of discrepancy
    descriptions (empty = time-free as far as these reschedulings
    witness).
    """
    if rng is None:
        rng = random.Random(0)
    trace = _trace(run, automata)
    views = {pid: local_view(trace, pid) for pid in range(run.n)}
    problems: list[str] = []
    baseline = {pid: outcome(run, pid) for pid in range(run.n)}
    for attempt in range(attempts):
        replay = reexecute_with_projections(run, automata, rng)
        trace = _trace(replay, automata)
        for pid in range(run.n):
            if local_view(trace, pid) != views[pid]:
                problems.append(
                    f"attempt {attempt}: p{pid}'s local view changed"
                )
            replayed = outcome(replay, pid)
            if replayed != baseline[pid]:
                problems.append(
                    f"attempt {attempt}: p{pid} produced {replayed!r} "
                    f"instead of {baseline[pid]!r}"
                )
    return problems
