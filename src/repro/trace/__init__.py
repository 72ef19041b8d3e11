"""Trace inspection: ASCII space-time diagrams and round tableaux.

Distributed executions are hard to debug from raw run records; these
renderers give the classic visual forms — a space-time diagram for
step-level runs (one column per process, one row per step) and a
round tableau for round-model runs (who heard whom, who decided what,
round by round).
"""

from repro.trace.diagram import (
    step_diagram,
    round_tableau,
    describe_round_run,
)

__all__ = [
    "step_diagram",
    "round_tableau",
    "describe_round_run",
]
