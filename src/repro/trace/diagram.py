"""ASCII renderers for step runs, round runs, and event traces."""

from __future__ import annotations

from typing import Any, Sequence

from repro.rounds.executor import RoundRun
from repro.simulation.run import Run


def step_diagram(run: Run, *, max_rows: int = 60) -> str:
    """Render a step-level run as a space-time diagram.

    One column per process, one row per executed step.  Cells show what
    the stepping process did: ``s->k`` (sent to process k), ``r(j)``
    (received from j), ``.`` (null step).  A ``X`` row marks crashes.
    Long runs are truncated to ``max_rows`` rows with an ellipsis.
    """
    width = 10
    header = "step  " + "".join(f"p{pid}".ljust(width) for pid in range(run.n))
    lines = [header, "-" * len(header)]
    crashed_marked: set[int] = set()
    rows = 0
    for step in run.schedule:
        if rows >= max_rows:
            lines.append(f"... ({len(run.schedule) - max_rows} more steps)")
            break
        # Mark crashes that happened at or before this time.
        newly_crashed = [
            pid
            for pid in run.pattern.faulty
            if pid not in crashed_marked
            and not run.pattern.is_alive(pid, step.time)
        ]
        for pid in newly_crashed:
            crashed_marked.add(pid)
            cells = ["" for _ in range(run.n)]
            cells[pid] = "X crash"
            lines.append(
                "      " + "".join(cell.ljust(width) for cell in cells)
            )
        actions = []
        if step.received_uids:
            senders = ",".join(
                str(run.messages[uid].sender) for uid in step.received_uids
            )
            actions.append(f"r({senders})")
        if step.sent_to is not None:
            actions.append(f"s->{step.sent_to}")
        if not actions:
            actions.append(".")
        cells = ["" for _ in range(run.n)]
        cells[step.pid] = " ".join(actions)
        lines.append(
            f"{step.index:>4}  "
            + "".join(cell.ljust(width) for cell in cells)
        )
        rows += 1
    return "\n".join(lines)


def round_tableau(run: RoundRun) -> str:
    """Render a round run as a tableau: rounds × processes.

    Each cell lists the senders heard that round; ``!v`` marks a
    decision on value ``v``, ``X`` marks the crash round, ``-`` a dead
    process.
    """
    width = 16
    header = "round  " + "".join(
        f"p{pid}".ljust(width) for pid in range(run.n)
    )
    lines = [header, "-" * len(header)]
    for record in run.rounds:
        cells = []
        for pid in range(run.n):
            if not run.scenario.alive_at_start(pid, record.index):
                cells.append("-")
                continue
            heard = sorted(record.delivered.get(pid, {}))
            cell = "heard:" + ("".join(str(s) for s in heard) or "none")
            if run.decision_round(pid) == record.index:
                cell += f" !{run.decision_value(pid)}"
            if pid in record.crashed:
                cell += " X"
            cells.append(cell)
        lines.append(
            f"{record.index:>5}  "
            + "".join(cell.ljust(width) for cell in cells)
        )
    return "\n".join(lines)


def event_diagram(
    events: Sequence[Any],
    *,
    highlight: Sequence[int] = (),
    max_rows: int = 120,
) -> str:
    """Render an event trace as a space-time diagram.

    Works on any :class:`~repro.obs.events.Event` sequence (exported
    JSONL, an :class:`~repro.obs.events.EventLog`, a cached result) —
    unlike :func:`step_diagram`/:func:`round_tableau` it needs no
    engine-native run object.  One column per process, one row per
    event, ``round_start`` events become separators.  Cells show the
    acting process's move: ``s->k`` (sent to k), ``r(j)`` (received
    from j), ``w(j)`` (a message from j was withheld), ``S(j)``
    (began suspecting j), ``!v`` (decided v), ``X`` (crash), ``halt``.

    ``highlight`` is a set of trace indices — typically one decision's
    critical-path nodes from
    :func:`repro.obs.critical.critical_paths` — marked with ``*``.
    """
    pids = sorted(
        {e.pid for e in events if e.pid is not None}
        | {e.peer for e in events if e.peer is not None}
    )
    if not pids:
        return "(empty trace)"
    marked = set(highlight)
    width = 12
    header = "   idx  " + "".join(f"p{pid}".ljust(width) for pid in pids)
    lines = [header, "-" * len(header)]
    column = {pid: slot for slot, pid in enumerate(pids)}
    rows = 0
    for index, event in enumerate(events):
        if rows >= max_rows:
            lines.append(f"... ({len(events) - index} more events)")
            break
        if event.kind == "round_start":
            label = f"-- round {event.round} (alive: {event.value}) "
            lines.append(label + "-" * max(0, len(header) - len(label)))
            continue
        actor, cell = event.pid, "?"
        if event.kind == "msg_sent":
            actor, cell = event.peer, f"s->{event.pid}"
        elif event.kind == "msg_delivered":
            cell = f"r({event.peer})"
        elif event.kind == "msg_withheld":
            cell = f"w({event.peer})"
        elif event.kind == "suspect":
            cell = f"S({event.peer})"
        elif event.kind == "decide":
            cell = f"!{event.value}"
        elif event.kind == "crash":
            cell = "X"
        elif event.kind == "halt":
            cell = "halt"
        if index in marked:
            cell = "*" + cell
        cells = ["" for _ in pids]
        if actor in column:
            cells[column[actor]] = cell
        star = "*" if index in marked else " "
        lines.append(
            f"{star}{index:>5}  "
            + "".join(text.ljust(width) for text in cells)
        )
        rows += 1
    return "\n".join(lines)


def describe_round_run(run: RoundRun) -> str:
    """One-paragraph summary of a round run."""
    decisions = ", ".join(
        f"p{pid}={value!r}@r{rnd}"
        for pid, (rnd, value) in sorted(run.decisions.items())
    )
    return (
        f"{run.algorithm_name} in {run.model.value} over n={run.n} "
        f"(t={run.t}), values={run.values}, "
        f"scenario=[{run.scenario.describe()}], "
        f"{run.num_rounds} rounds, decisions: {decisions or 'none'}"
    )
