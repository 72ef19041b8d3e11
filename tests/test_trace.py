"""Tests for the trace renderers."""

from __future__ import annotations

import random

from repro.consensus import FloodSet
from repro.failures import FailurePattern
from repro.models import SynchronousModel
from repro.rounds import FailureScenario, run_rs, run_rws
from repro.sdd import solve_sdd_ss
from repro.trace import (
    describe_round_run,
    round_tableau,
    step_diagram,
)
from repro.workloads import a1_rws_disagreement, crash_mid_broadcast


class TestStepDiagram:
    def make_run(self, crashes=None):
        pattern = FailurePattern.with_crashes(2, crashes or {})
        return solve_sdd_ss(1, pattern, rng=random.Random(1))

    def test_contains_header_and_steps(self):
        text = step_diagram(self.make_run())
        assert "p0" in text and "p1" in text
        assert "s->1" in text  # the sender's send

    def test_receive_annotation(self):
        text = step_diagram(self.make_run())
        assert "r(0)" in text

    def test_crash_marker(self):
        text = step_diagram(self.make_run(crashes={0: 1}))
        assert "X crash" in text

    def test_truncation(self):
        pattern = FailurePattern.crash_free(3)
        model = SynchronousModel()
        from repro.simulation.automaton import IdleAutomaton

        run = model.executor(IdleAutomaton(), 3, pattern).execute(100)
        text = step_diagram(run, max_rows=10)
        assert "more steps" in text


class TestRoundTableau:
    def test_failure_free_tableau(self):
        run = run_rs(FloodSet(), [0, 1, 1], FailureScenario.failure_free(3), t=1)
        text = round_tableau(run)
        assert "heard:012" in text
        assert "!0" in text  # decisions on value 0

    def test_dead_process_column(self):
        run = run_rs(
            FloodSet(), [0, 1, 1], crash_mid_broadcast(3, reached=()), t=1
        )
        text = round_tableau(run)
        assert "-" in text

    def test_crash_marker_in_decide_then_crash(self):
        from repro.consensus import A1

        run = run_rws(A1(), [0, 1, 1], a1_rws_disagreement(3), t=1)
        text = round_tableau(run)
        assert "X" in text
        assert "!0" in text and "!1" in text  # the disagreement, visible

    def test_describe_round_run_mentions_everything(self):
        run = run_rs(FloodSet(), [0, 1, 1], FailureScenario.failure_free(3), t=1)
        text = describe_round_run(run)
        assert "FloodSet" in text
        assert "RS" in text
        assert "decisions" in text

