"""Step-level message-passing simulation kernel.

This package implements the computational model of Section 2 of the
paper: ``n`` deterministic automata communicating through per-process
message buffers, executed one atomic *step* at a time.  In each step a
single process

1. receives a (possibly empty) set of messages from its buffer,
2. changes its state, and
3. may send one message to a single process.

The kernel is model-agnostic: the asynchronous model, the synchronous
model SS, and the failure-detector model SP are all obtained by
restricting which schedules the :class:`~repro.simulation.executor.StepExecutor`
is driven with (see :mod:`repro.models`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "message": ("Message",),
        "automaton": ("StepAutomaton", "StepContext", "StepOutcome"),
        "schedule": ("Step", "Schedule"),
        "run": ("Run",),
        "schedulers": (
            "Scheduler",
            "SchedulerView",
            "StepChoice",
            "RoundRobinScheduler",
            "RandomScheduler",
            "ScriptedScheduler",
        ),
        "executor": ("StepExecutor",),
    },
)

__all__ = [
    "Message",
    "StepAutomaton",
    "StepContext",
    "StepOutcome",
    "Step",
    "Schedule",
    "Run",
    "Scheduler",
    "SchedulerView",
    "StepChoice",
    "RoundRobinScheduler",
    "RandomScheduler",
    "ScriptedScheduler",
    "StepExecutor",
]
