"""The canonical algorithm registry: names to zero-argument factories.

Execution requests travel between processes and onto disk, so they
cannot carry algorithm *instances* — they carry registry keys, and
every consumer (CLI, sweep workers, cache loads) resolves the key
through this one table.  Keys are the CLI's historical algorithm names
plus the non-uniform witnesses used by the gap experiments.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from importlib import import_module
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.rounds.algorithm import RoundAlgorithm


class _Factories(Mapping):
    """``name -> class`` over a ``name -> (module, class name)`` table.

    Listing, ``len`` and ``in`` read the table; ``[name]`` imports the
    algorithm's home module on first access and remembers the class, so
    a run loads the algorithms it names and no others.
    """

    def __init__(self, homes: Mapping[str, tuple[str, str]]) -> None:
        self._homes = homes
        self._classes: dict[str, Callable[[], RoundAlgorithm]] = {}

    def __getitem__(self, name: str) -> Callable[[], RoundAlgorithm]:
        factory = self._classes.get(name)
        if factory is None:
            module, attribute = self._homes[name]
            factory = getattr(import_module(module), attribute)
            self._classes[name] = factory
        return factory

    def __contains__(self, name: object) -> bool:
        return name in self._homes

    def __iter__(self) -> Iterator[str]:
        return iter(self._homes)

    def __len__(self) -> int:
        return len(self._homes)


#: Every round algorithm a request may name.  Zero-argument factories:
#: the algorithms are stateless between runs, so a fresh instance per
#: execution keeps workers independent.
ALGORITHM_FACTORIES: Mapping[str, Callable[[], RoundAlgorithm]] = _Factories(
    {
        "floodset": ("repro.consensus.floodset", "FloodSet"),
        "floodset-ws": ("repro.consensus.floodset", "FloodSetWS"),
        "c-opt": ("repro.consensus.opt", "COptFloodSet"),
        "c-opt-ws": ("repro.consensus.opt", "COptFloodSetWS"),
        "f-opt": ("repro.consensus.fopt", "FOptFloodSet"),
        "f-opt-ws": ("repro.consensus.fopt", "FOptFloodSetWS"),
        "a1": ("repro.consensus.a1", "A1"),
        "eager-floodset-ws": ("repro.consensus.early", "EagerFloodSetWS"),
        "atomic-broadcast": ("repro.broadcast.algorithm", "AtomicBroadcast"),
    }
)

#: The paper's seven uniform-consensus algorithms (Figures 1-4 and their
#: optimisations), in the headline table's row order: what ``repro
#: latency`` and E15 profile.  The other registry entries
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


def make_algorithm(name: str) -> RoundAlgorithm:
    """Instantiate the registered algorithm ``name``.

    Raises :class:`~repro.errors.ConfigurationError` for unknown keys,
    naming the known ones.
    """
    try:
        factory = ALGORITHM_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; choose from "
            f"{sorted(ALGORITHM_FACTORIES)}"
        ) from None
    return factory()

