"""Chaos soak tests: broad randomized sweeps across the whole stack.

Each test hammers one layer with a wide mix of random parameters and
adversaries, spec-checking every run.  These complement the targeted
exhaustive tests: exhaustiveness pins down small instances completely,
the soak explores larger, messier corners.  All are marked slow.

The step-model soak draws its parameters through the Hypothesis
strategies of :mod:`repro.fuzz.strategies` (``derandomize=True`` keeps
CI deterministic); when Hypothesis is not installed those tests skip
and the exhaustive/round-model soaks still run.
"""

from __future__ import annotations

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.fuzz.strategies import failure_patterns

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False

from repro.analysis import verify_algorithm
from repro.commit import check_nbac_run
from repro.commit.algorithms import PerfectFDCommit
from repro.consensus import (
    A1,
    COptFloodSetWS,
    FloodSet,
    FloodSetWS,
    FOptFloodSet,
    FOptFloodSetWS,
)
from repro.failures import FailurePattern
from repro.rounds import RoundModel


pytestmark = pytest.mark.slow


class TestRoundModelSoak:
    @pytest.mark.parametrize(
        "algorithm_cls,model",
        [
            (FloodSet, RoundModel.RS),
            (FloodSetWS, RoundModel.RWS),
            (COptFloodSetWS, RoundModel.RWS),
            (FOptFloodSet, RoundModel.RS),
            (FOptFloodSetWS, RoundModel.RWS),
        ],
        ids=lambda x: getattr(x, "__name__", x.value if hasattr(x, "value") else x),
    )
    @pytest.mark.parametrize("n,t", [(4, 1), (5, 2), (6, 2)])
    def test_consensus_sampled_safety(self, algorithm_cls, model, n, t):
        report = verify_algorithm(
            algorithm_cls(), n, t, model,
            sample=400, rng=random.Random(n * 100 + t),
            domain=(0, 1, 2),
        )
        assert report.ok, report.first_violations()

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_a1_sampled_safety_rs(self, n):
        report = verify_algorithm(
            A1(), n, 1, RoundModel.RS,
            sample=400, rng=random.Random(n),
        )
        assert report.ok, report.first_violations()

    @pytest.mark.parametrize("n", [4, 5])
    def test_commit_sampled_safety(self, n):
        report = verify_algorithm(
            PerfectFDCommit(), n, 1, RoundModel.RWS,
            checker=check_nbac_run,
            domain=(False, True),
            sample=400,
            rng=random.Random(7 + n),
        )
        assert report.ok, report.first_violations()


if HAVE_HYPOTHESIS:

    @st.composite
    def _ss_soak_params(draw):
        n = draw(st.integers(2, 6))
        return (
            n,
            draw(st.integers(1, 4)),  # phi
            draw(st.integers(1, 4)),  # delta
            draw(
                failure_patterns(
                    n=n, max_failures=min(2, n - 1), horizon=60
                )
            ),
            draw(st.integers(0, 2**16)),  # scheduler seed
        )

    @st.composite
    def _detector_soak_params(draw):
        n = draw(st.integers(2, 4))
        victim = draw(st.integers(0, n - 1))
        return (
            n,
            draw(st.integers(1, 2)),  # phi
            draw(st.integers(1, 2)),  # delta
            FailurePattern.with_crashes(n, {victim: draw(st.integers(5, 60))}),
            draw(st.integers(0, 2**16)),  # scheduler seed
        )

    class TestStepModelSoak:
        @settings(max_examples=15, deadline=None, derandomize=True)
        @given(params=_ss_soak_params())
        def test_ss_scheduler_long_runs_many_params(self, params):
            from repro.models.ss import SSScheduler, validate_ss_run
            from repro.simulation.automaton import IdleAutomaton
            from repro.simulation.executor import StepExecutor

            n, phi, delta, pattern, seed = params
            executor = StepExecutor(
                IdleAutomaton(),
                n,
                pattern,
                SSScheduler(phi, delta, rng=random.Random(seed)),
            )
            run = executor.execute(250)
            assert validate_ss_run(run, phi, delta) == []

        @settings(max_examples=8, deadline=None, derandomize=True)
        @given(params=_detector_soak_params())
        def test_timeout_detector_many_params(self, params):
            from repro.failures import (
                TimeoutPerfectDetector,
                classify_history,
                history_from_run,
            )
            from repro.models import SynchronousModel

            n, phi, delta, pattern, seed = params
            model = SynchronousModel(phi=phi, delta=delta)
            executor = model.executor(
                TimeoutPerfectDetector(n, phi, delta),
                n,
                pattern,
                rng=random.Random(seed),
                record_states=True,
            )
            run = executor.execute(600)
            history = history_from_run(run)
            report = classify_history(
                history, pattern, len(run.schedule) - 1
            )
            assert not report.violations
