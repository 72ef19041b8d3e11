"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.consensus import (
    A1,
    COptFloodSet,
    COptFloodSetWS,
    FloodSet,
    FloodSetWS,
    FOptFloodSet,
    FOptFloodSetWS,
)


class _QuickExperiments(dict):
    """``exp_id -> ExperimentResult`` of the quick E1–E15 suite, each
    experiment run on first lookup and then remembered."""

    def __missing__(self, exp_id: str):
        from repro.core import EXPERIMENTS

        result = self[exp_id] = EXPERIMENTS[exp_id](True)
        return result

    def run_all(self, quick: bool = True) -> list:
        """Stands in for ``repro.core.report.run_all_experiments``."""
        from repro.core import EXPERIMENTS

        assert quick
        return [self[key] for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:]))]


@pytest.fixture(scope="session")
def quick_experiments() -> _QuickExperiments:
    """The quick experiment suite, executed at most once per session.

    The per-id tests, the result-shape spot checks and the two report
    tests all read the same fifteen results; running the suite for each
    of them was 120 s of a 5-minute tier-1.
    """
    return _QuickExperiments()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests needing different streams reseed."""
    return random.Random(0xC0FFEE)


@pytest.fixture(
    params=[
        FloodSet,
        FloodSetWS,
        COptFloodSet,
        COptFloodSetWS,
        FOptFloodSet,
        FOptFloodSetWS,
    ],
    ids=lambda cls: cls.__name__,
)
def floodset_family(request):
    """Every FloodSet-derived algorithm (excludes A1, which needs t=1)."""
    return request.param()


@pytest.fixture(
    params=[FloodSet, FloodSetWS, COptFloodSet, COptFloodSetWS,
            FOptFloodSet, FOptFloodSetWS, A1],
    ids=lambda cls: cls.__name__,
)
def any_algorithm(request):
    """Every paper algorithm (all support t=1)."""
    return request.param()
