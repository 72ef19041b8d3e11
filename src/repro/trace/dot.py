"""Graphviz (DOT) export of runs: publication-grade space-time diagrams.

The ASCII renderers in :mod:`repro.trace.diagram` are for terminals;
these exporters emit DOT source for `dot -Tsvg`, drawing the classic
distributed-computing space-time diagram: one horizontal lane per
process, nodes for steps (or rounds), and arrows for messages.
"""

from __future__ import annotations

from repro.rounds.executor import RoundRun


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def round_run_to_dot(run: RoundRun) -> str:
    """Render a round-model run as a DOT digraph.

    One node per (process, round) cell; message arrows from sender
    cells to receiver cells; pending (sent-but-undelivered) messages
    drawn dotted red; decisions annotated on the deciding cell.
    """
    lines = [
        "digraph roundrun {",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=9];",
    ]
    for pid in range(run.n):
        previous = None
        for record in run.rounds:
            if not run.scenario.alive_at_start(pid, record.index):
                break
            node = f"p{pid}r{record.index}"
            label = f"p{pid} r{record.index}"
            if run.decision_round(pid) == record.index:
                label += f"\\ndecide {run.decision_value(pid)!r}"
            color = "red" if pid in record.crashed else "black"
            lines.append(
                f"  {node} [label={_quote(label)}, color={color}];"
            )
            if previous is not None:
                lines.append(
                    f"  {previous} -> {node} [style=dashed, color=grey, "
                    "arrowhead=none];"
                )
            previous = node
    for record in run.rounds:
        for (sender, recipient), _payload in record.sent.items():
            if sender == recipient:
                continue
            source = f"p{sender}r{record.index}"
            target = f"p{recipient}r{record.index}"
            delivered = sender in record.delivered.get(recipient, {})
            style = (
                "[color=blue]"
                if delivered
                else "[color=red, style=dotted, label=pending]"
            )
            lines.append(f"  {source} -> {target} {style};")
    lines.append("}")
    return "\n".join(lines)
