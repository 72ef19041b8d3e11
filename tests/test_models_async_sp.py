"""Tests for the asynchronous and SP models."""

from __future__ import annotations

import random

import pytest

from repro.failures import FailurePattern, PerfectDetector, check_strong_accuracy
from repro.models import (
    AsynchronousModel,
    PerfectFDModel,
    check_admissible_prefix,
    validate_sp_run,
)
from repro.simulation import StepAutomaton, StepExecutor, StepOutcome
from repro.simulation.automaton import IdleAutomaton
from repro.simulation.schedulers import RoundRobinScheduler


class SuspectLogger(StepAutomaton):
    """Records the failure-detector output seen at each step."""

    def initial_state(self, pid, n):
        return ()

    def on_step(self, ctx):
        return StepOutcome(state=ctx.state + (ctx.suspects,))


class TestAsynchronousModel:
    def test_executor_produces_admissible_prefix(self, rng):
        model = AsynchronousModel()
        pattern = FailurePattern.with_crashes(3, {1: 10})
        run = model.executor(IdleAutomaton(), 3, pattern, rng=rng).execute(80)
        assert model.validate(run) == []

    def test_no_detector_history(self, rng):
        model = AsynchronousModel()
        pattern = FailurePattern.crash_free(2)
        run = model.executor(SuspectLogger(), 2, pattern, rng=rng).execute(10)
        assert all(
            suspects is None
            for state in run.final_states.values()
            for suspects in state
        )

    def test_require_delivery_flags_starved_messages(self):
        class Spammer(StepAutomaton):
            def initial_state(self, pid, n):
                return None

            def on_step(self, ctx):
                if ctx.pid == 0:
                    return StepOutcome(state=None, send_to=1, payload="x")
                return StepOutcome(state=None)

        from repro.simulation.schedulers import ScriptedScheduler

        pattern = FailurePattern.crash_free(2)
        executor = StepExecutor(
            Spammer(), 2, pattern, ScriptedScheduler([(0, "all"), (1, [])])
        )
        run = executor.execute(2)
        assert check_admissible_prefix(run) == []
        assert check_admissible_prefix(run, require_delivery=True)


class TestPerfectFDModel:
    def test_steps_observe_perfect_suspicions(self, rng):
        model = PerfectFDModel(max_detection_delay=5)
        pattern = FailurePattern.with_crashes(2, {0: 5})
        executor = model.executor(SuspectLogger(), 2, pattern, rng=rng)
        run = executor.execute(120)
        # The surviving process eventually observed the crash.
        final_views = run.final_states[1]
        assert final_views[-1] == frozenset({0})
        # And never observed a false suspicion.
        for suspects in final_views:
            assert suspects <= frozenset({0})

    def test_validate_accepts_own_runs(self, rng):
        model = PerfectFDModel()
        pattern = FailurePattern.with_crashes(3, {2: 8})
        run = model.executor(IdleAutomaton(), 3, pattern, rng=rng).execute(60)
        assert model.validate(run) == []

    def test_validate_rejects_historyless_run(self):
        pattern = FailurePattern.crash_free(2)
        executor = StepExecutor(
            IdleAutomaton(), 2, pattern, RoundRobinScheduler()
        )
        run = executor.execute(4)
        assert any(
            "no failure-detector history" in v for v in validate_sp_run(run)
        )

    def test_validate_rejects_inaccurate_history(self, rng):
        from repro.failures import ConstantHistory

        pattern = FailurePattern.crash_free(2)
        executor = StepExecutor(
            IdleAutomaton(),
            2,
            pattern,
            RoundRobinScheduler(),
            history=ConstantHistory({0}),  # suspects a live process
        )
        run = executor.execute(4)
        assert any("strong accuracy" in v for v in validate_sp_run(run))

    def test_history_randomized_delays_stay_accurate(self, rng):
        model = PerfectFDModel(max_detection_delay=40)
        pattern = FailurePattern.with_crashes(4, {1: 3, 2: 9})
        history = model.make_history(pattern, horizon=200, rng=rng)
        assert check_strong_accuracy(history, pattern, 200)

    def test_completeness_at_horizon(self, rng):
        model = PerfectFDModel(max_detection_delay=10)
        pattern = FailurePattern.with_crashes(2, {0: 5})
        history = model.make_history(pattern, horizon=100, rng=rng)
        assert 0 in history.suspects(1, 100)

    def test_crash_after_the_horizon_is_not_suspected_early(self):
        # A crash later than the history's horizon must still be
        # detected no earlier than the crash itself.
        pattern = FailurePattern.with_crashes(3, {1: 1500})
        run = PerfectFDModel().executor(
            IdleAutomaton(), 3, pattern, rng=random.Random(1)
        ).execute(2000)
        assert validate_sp_run(run) == []
        late = FailurePattern.with_crashes(2, {1: 50})
        history = PerfectDetector().history(late, horizon=10)
        assert 1 not in history.suspects(0, 10)
        assert 1 in history.suspects(0, 50)
