"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest


class _ExperimentResults(dict):
    """``exp_id -> ExperimentResult`` of the E1–E15 suite, each
    experiment run on first lookup and then remembered."""

    def __missing__(self, exp_id: str):
        from repro.core import EXPERIMENTS

        result = self[exp_id] = EXPERIMENTS[exp_id]()
        return result

    def run_all(self) -> list:
        """Stands in for ``repro.core.report.run_all_experiments``."""
        from repro.core import EXPERIMENTS

        return [self[key] for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:]))]


@pytest.fixture(scope="session")
def experiment_results() -> _ExperimentResults:
    """The experiment suite, executed at most once per session.

    The per-id tests, the result-shape spot checks and the two report
    tests all read the same fifteen results; running the suite for each
    of them was 120 s of a 5-minute tier-1.
    """
    return _ExperimentResults()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests needing different streams reseed."""
    return random.Random(0xC0FFEE)
