"""Lamport and vector clocks over a happens-before DAG.

Written from the definitions, over a :class:`repro.obs.causal.CausalGraph`'s
``proc`` and ``parents`` alone, as the second opinion on its
:meth:`~repro.obs.causal.CausalGraph.cone`: every event in the causal
past of ``e`` has a smaller Lamport clock than ``e`` and a vector clock
``e``'s dominates.
"""

from __future__ import annotations

from typing import Any


def edges(graph: Any) -> list:
    """Every happens-before generator of ``graph``."""
    return [edge for incoming in graph.parents for edge in incoming]


def message_pairs(graph: Any) -> dict[int, int]:
    """``delivery/withheld index -> matched send index``."""
    return {edge.dst: edge.src for edge in edges(graph) if edge.kind == "message"}


def lamport(graph: Any) -> list[int]:
    """Each event's Lamport clock: one more than its latest parent's."""
    clocks: list[int] = []
    for incoming in graph.parents:
        clocks.append(1 + max((clocks[edge.src] for edge in incoming), default=0))
    return clocks


def vector(graph: Any) -> list[dict[int, int]]:
    """Each event's vector clock: its parents' pointwise maximum, ticked
    for the process that executed it."""
    clocks: list[dict[int, int]] = []
    for executing, incoming in zip(graph.proc, graph.parents):
        clock: dict[int, int] = {}
        for edge in incoming:
            for pid, tick in clocks[edge.src].items():
                if tick > clock.get(pid, 0):
                    clock[pid] = tick
        if executing is not None:
            clock[executing] = clock.get(executing, 0) + 1
        clocks.append(clock)
    return clocks
