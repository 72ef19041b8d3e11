"""Integration capstone: the full E1-E15 reproduction suite passes.

Each paper claim is one test so failures are attributable.  Each
experiment runs once per session (``experiment_results`` in
conftest.py); ``make report-check`` runs
the same functions to regenerate EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core import EXPERIMENTS, run_experiment
from repro.core.experiments import ExperimentResult

FAST_IDS = [
    "E1", "E2", "E3", "E5", "E6", "E7", "E8", "E9",
    "E10", "E11", "E12", "E13", "E15",
]
SLOW_IDS = ["E4", "E14"]


@pytest.mark.parametrize("exp_id", FAST_IDS)
def test_fast_experiments_pass(exp_id, experiment_results):
    result = experiment_results[exp_id]
    assert result.ok, result.describe()


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", SLOW_IDS)
def test_slow_experiments_pass(exp_id, experiment_results):
    result = experiment_results[exp_id]
    assert result.ok, result.describe()


class TestRegistry:
    def test_all_fifteen_registered(self):
        assert sorted(EXPERIMENTS, key=lambda k: int(k[1:])) == [
            f"E{i}" for i in range(1, 16)
        ]

    def test_run_experiment_accepts_lowercase(self):
        result = run_experiment("e2")
        assert isinstance(result, ExperimentResult)
        assert result.exp_id == "E2"

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_describe_contains_claim_and_measurement(self):
        result = run_experiment("E2")
        text = result.describe()
        assert "paper:" in text and "measured:" in text


class TestResultShapes:
    """Spot-check the measured numbers, not just the pass bits."""

    def test_e6_lat_values(self, experiment_results):
        result = experiment_results["E6"]
        assert "lat RS=1" in result.measured
        assert "lat RWS=1" in result.measured

    def test_e8_lambda(self, experiment_results):
        result = experiment_results["E8"]
        assert "Λ=1" in result.measured

    def test_e10_lambdas_at_least_two(self, experiment_results):
        result = experiment_results["E10"]
        assert "all >= 2: True" in result.measured

    def test_e15_table_rendered(self, experiment_results):
        result = experiment_results["E15"]
        table = "\n".join(result.details)
        assert "A1" in table and "RWS" in table


class TestPlantedModelBreaks:
    """An experiment measured on step runs fails when its scheduler
    leaves the model: its own round-level checks may not notice."""

    def test_a_late_delivering_ss_scheduler_fails_e11(self, monkeypatch):
        import repro.emulation.synchronizer as synchronizer
        from repro.core.experiments import experiment_e11
        from repro.models.ss import SSScheduler

        def late(phi, delta, rng=None):
            # Delivers up to 2Δ steps after the send, not Δ.
            return SSScheduler(phi, 2 * delta, rng=rng)

        monkeypatch.setattr(synchronizer, "SSScheduler", late)
        result = experiment_e11()
        assert result.ok is False
        assert "0 round-synchrony violations" in result.measured
        assert result.measured.endswith("; 8 inadmissible runs")
