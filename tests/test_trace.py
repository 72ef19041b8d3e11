"""Tests for the trace renderers."""

from __future__ import annotations

from repro.consensus import FloodSet
from repro.rounds import FailureScenario, run_rs, run_rws
from repro.trace import round_tableau
from repro.workloads import a1_rws_disagreement, crash_mid_broadcast


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

