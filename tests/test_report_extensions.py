"""Tests for the EXPERIMENTS.md report generator."""

from __future__ import annotations

import pytest

from repro.core.report import format_result, generate_report, write_report
from repro.core.experiments import ExperimentResult, run_experiment


class TestReportFormatting:
    def test_format_result_sections(self):
        result = run_experiment("E2")
        text = format_result(result)
        assert text.startswith("## E2")
        assert "*Paper claim.*" in text
        assert "*Verdict.* PASS" in text

    def test_format_includes_details_block(self):
        result = ExperimentResult(
            exp_id="E0",
            title="demo",
            paper_claim="claim",
            measured="measured",
            ok=True,
            details=["line one", "line two"],
        )
        text = format_result(result)
        assert "```" in text and "line two" in text

    @pytest.fixture
    def suite_run_once(self, monkeypatch, experiment_results):
        """``generate_report`` renders the session's one suite run."""
        monkeypatch.setattr(
            "repro.core.report.run_all_experiments", experiment_results.run_all
        )

    @pytest.mark.slow
    def test_generate_report_runs_everything(self, suite_run_once):
        content = generate_report()
        assert content.count("## E") == 15
        assert "15/15 experiments pass" in content
        assert "Notes and observed deviations" in content

    @pytest.mark.slow
    def test_write_report_to_file(self, tmp_path, suite_run_once):
        path = tmp_path / "EXPERIMENTS.md"
        passed = write_report(str(path))
        assert passed == 15
        assert path.read_text().startswith("# EXPERIMENTS")
