"""Workload builders: named configurations and scenarios.

The paper's arguments revolve around a handful of carefully chosen
runs; this package names them so tests, examples and experiments share
them instead of re-deriving adversary tuples inline.
"""

from repro.workloads.configs import (
    unanimous,
    adversarial_split,
)
from repro.workloads.scenarios import (
    failure_free,
    initially_dead_t,
    crash_mid_broadcast,
    decide_then_crash_pending,
    floodset_rws_violation,
    a1_rws_disagreement,
)

__all__ = [
    "unanimous",
    "adversarial_split",
    "failure_free",
    "initially_dead_t",
    "crash_mid_broadcast",
    "decide_then_crash_pending",
    "floodset_rws_violation",
    "a1_rws_disagreement",
]
