"""ASCII renderers for round runs and event traces."""

from __future__ import annotations

from typing import Any, Sequence

from repro.rounds.executor import RoundRun


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
    unlike :func:`round_tableau` it needs no
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
