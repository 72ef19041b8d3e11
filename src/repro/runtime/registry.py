"""The canonical algorithm registry: names to zero-argument factories.

Execution requests travel between processes and onto disk, so they
cannot carry algorithm *instances* — they carry registry keys, and
every consumer (CLI, sweep workers, cache loads) resolves the key
through this one table.  Keys are the CLI's historical algorithm names
plus the non-uniform witnesses used by the gap experiments.
"""

from __future__ import annotations

from typing import Callable

from repro.broadcast import AtomicBroadcast
from repro.consensus import (
    A1,
    COptFloodSet,
    COptFloodSetWS,
    EagerFloodSetWS,
    FloodSet,
    FloodSetWS,
    FOptFloodSet,
    FOptFloodSetWS,
)
from repro.errors import ConfigurationError
from repro.rounds.algorithm import RoundAlgorithm
from repro.vector.kernels import PLAN_KERNELS as VECTOR_KERNELS
from repro.vector.kernels import plan_kernel_for

#: Every round algorithm a request may name.  Zero-argument factories:
#: the algorithms are stateless between runs, so a fresh instance per
#: execution keeps workers independent.
ALGORITHM_FACTORIES: dict[str, Callable[[], RoundAlgorithm]] = {
    "floodset": FloodSet,
    "floodset-ws": FloodSetWS,
    "c-opt": COptFloodSet,
    "c-opt-ws": COptFloodSetWS,
    "f-opt": FOptFloodSet,
    "f-opt-ws": FOptFloodSetWS,
    "a1": A1,
    "eager-floodset-ws": EagerFloodSetWS,
    "atomic-broadcast": AtomicBroadcast,
}

#: The paper's seven uniform-consensus algorithms (Figures 1-4 and their
#: optimisations), in the headline table's row order: what ``repro
#: latency`` / ``summary`` and E15 profile.  The other registry entries
#: are witnesses (non-uniform, not consensus) with no latency profile.
UNIFORM_CONSENSUS_ALGORITHMS = (
    "floodset",
    "floodset-ws",
    "c-opt",
    "c-opt-ws",
    "f-opt",
    "f-opt-ws",
    "a1",
)


def has_vector_kernel(name: str, *, n: int | None = None, t: int | None = None) -> bool:
    """Whether ``engine="vector"`` can run ``name`` on its columnar kernel.

    The vector engine mirrors a registered algorithm's transition table
    as a batched plan kernel (:data:`VECTOR_KERNELS`); algorithms
    without one — and configurations a kernel refuses, when ``n``/``t``
    are given — still execute under ``engine="vector"`` but fall back
    to the object executor cell by cell.
    """
    if n is None or t is None:
        return name in VECTOR_KERNELS
    return plan_kernel_for(name, n, t) is not None


def make_algorithm(name: str) -> RoundAlgorithm:
    """Instantiate the registered algorithm ``name``.

    Raises :class:`~repro.errors.ConfigurationError` for unknown keys,
    naming the known ones.
    """
    factory = ALGORITHM_FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from "
            f"{sorted(ALGORITHM_FACTORIES)}"
        )
    return factory()
