"""The clauses of uniform consensus (paper Section 5.1), written once.

Each clause is a predicate over a run's *decisions* (``pid -> (round,
value)`` of each first decision), its correct set and, where needed,
its inputs and a round bound, and returns the processes that violate
it, in pid order.  Validity (every decision is some process's input)
implies the paper's uniform validity.  The run checkers
(:mod:`repro.consensus.spec`, :mod:`repro.commit.spec`), ``repro mc``'s
cell properties and the trace oracle's ``consensus`` checker all call
these, and every engine's latency degree is :func:`latency`; the module
imports nothing from ``repro``, so each of them can.  Values are
compared with ``==`` only, so a decision value need not be hashable.
"""

from __future__ import annotations

from typing import Any, Collection, Mapping, Sequence

Decisions = Mapping[int, tuple[int, Any]]


def uniform_agreement(decisions: Decisions) -> list[int]:
    """Every decider, when not all of them decided the same value."""
    values = [value for _, value in decisions.values()]
    if all(value == values[0] for value in values[1:]):
        return []
    return sorted(decisions)


def agreement(decisions: Decisions, correct: Collection[int]) -> list[int]:
    """Every correct decider, when not all of them decided the same value."""
    return uniform_agreement(
        {pid: entry for pid, entry in decisions.items() if pid in correct}
    )


def validity(decisions: Decisions, inputs: Sequence[Any]) -> list[int]:
    """The deciders whose value is no process's input."""
    return sorted(
        pid for pid, (_, value) in decisions.items() if value not in inputs
    )


def termination(
    decisions: Decisions, correct: Collection[int], by_round: int | None = None
) -> list[int]:
    """The correct processes with no decision (by round ``by_round``)."""
    return sorted(
        pid
        for pid in correct
        if pid not in decisions
        or (by_round is not None and decisions[pid][0] > by_round)
    )


def latency(decisions: Decisions, correct: Collection[int]) -> int | None:
    """The run's latency degree (Section 5.2): the round by which every
    correct process decided, ``None`` when termination fails."""
    if termination(decisions, correct):
        return None
    return max((decisions[pid][0] for pid in correct), default=0)
