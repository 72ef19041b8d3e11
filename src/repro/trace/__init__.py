"""Trace inspection: round tableaux and event diagrams.

Distributed executions are hard to debug from raw run records; these
renderers give the classic visual forms — a round tableau for
round-model runs (who heard whom, who decided what, round by round) and,
in :mod:`repro.trace.diagram`, a space-time diagram of any event trace.
"""

from repro.trace.diagram import round_tableau

__all__ = ["round_tableau"]
