"""``repro mc`` run directories: a checking run resumes itself.

A second ``check`` over the same task and run root opens the same run
directory, executes nothing, recomputes the same verdict, and leaves a
summary the run-directory validator accepts.
"""

from __future__ import annotations

from repro.mc import McTask, check
from repro.obs.artifacts import RunDir
from repro.obs.report import render_report, summary_problems

TASK = McTask(
    property_name="agreement",
    algorithm="floodset",
    n=3,
    t=1,
    model="RS",
    horizon=3,
)


class TestServeResumesSolo:
    """A solo checking run resumed by a second solo run."""

    def test_solo_run_resumes_itself(self, tmp_path):
        root = str(tmp_path / "runs")
        first = check(McTask(**{**TASK.__dict__, "run_root": root}))
        assert first.sweep.executed == len(first.sweep.results)
        second = check(McTask(**{**TASK.__dict__, "run_root": root}))
        assert second.sweep.executed == 0
        assert second.verdict.to_dict() == first.verdict.to_dict()


class TestRunDirSummary:
    """An ``mc`` run directory carries a summary its own validator accepts."""

    def _summary(self, outcome, *, executed):
        run_dir = RunDir.load(outcome.run_dir)
        summary = run_dir.summary()
        cells = len(outcome.sweep.results)
        assert summary_problems(summary) == []
        assert summary["mc"] == outcome.verdict.to_dict()
        assert summary["coverage"]["planned"] == cells
        assert summary["coverage"]["completed"] == cells
        assert summary["resume"]["executed"] == executed
        assert summary["resume"]["cached"] == cells - executed
        assert summary["resume"]["re_executed"] == 0
        assert all(verdict["ok"] for verdict in summary["slo_verdicts"])
        assert f"coverage: {cells}/{cells} cells (100.0%)" in render_report(
            run_dir
        )
        return summary

    def test_solo_cold_then_resumed(self, tmp_path):
        task = McTask(**{**TASK.__dict__, "run_root": str(tmp_path / "runs")})
        cold = check(task)
        cells = len(cold.sweep.results)
        summary = self._summary(cold, executed=cells)
        assert summary["resume"]["completed_before"] == 0

        resumed = check(task)
        summary = self._summary(resumed, executed=0)
        assert summary["resume"]["completed_before"] == cells
        assert resumed.verdict.to_json() == cold.verdict.to_json()
        assert RunDir.load(resumed.run_dir).manifest["legs"] == 2
