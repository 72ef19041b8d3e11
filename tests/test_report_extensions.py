"""Tests for the report generator and the X-series extensions."""

from __future__ import annotations

import pytest

from repro.core import EXTENSIONS, run_all_extensions, run_extension
from repro.core.report import format_result, generate_report, write_report
from repro.core.experiments import ExperimentResult, run_experiment


class TestExtensions:
    def test_registry_contents(self):
        assert sorted(EXTENSIONS) == [
            "X1", "X2", "X3", "X4", "X5", "X6", "X7",
        ]

    @pytest.mark.parametrize("ext_id", ["X2", "X3", "X4", "X6"])
    def test_fast_extensions_pass(self, ext_id):
        result = run_extension(ext_id)
        assert result.ok, result.describe()

    @pytest.mark.slow
    def test_x1_resilience_sweep_passes(self):
        result = run_extension("X1")
        assert result.ok, result.describe()

    @pytest.mark.slow
    def test_x5_uniform_harder_than_consensus(self):
        result = run_extension("X5")
        assert result.ok, result.describe()

    @pytest.mark.slow
    def test_x7_early_deciding_gap(self):
        result = run_extension("X7")
        assert result.ok, result.describe()

    def test_lowercase_id(self):
        assert run_extension("x3").exp_id == "X3"

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_extension("X9")

    def test_extension_claims_are_labelled(self):
        result = run_extension("X3")
        assert result.paper_claim.startswith("(extension)")


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
    def suite_run_once(self, monkeypatch, quick_experiments):
        """``generate_report`` renders the session's one suite run."""
        monkeypatch.setattr(
            "repro.core.report.run_all_experiments", quick_experiments.run_all
        )

    @pytest.mark.slow
    def test_generate_report_runs_everything(self, suite_run_once):
        content = generate_report(quick=True)
        assert content.count("## E") == 15
        assert "15/15 experiments pass" in content
        assert "Notes and observed deviations" in content

    @pytest.mark.slow
    def test_write_report_to_file(self, tmp_path, suite_run_once):
        path = tmp_path / "EXPERIMENTS.md"
        passed = write_report(str(path), quick=True)
        assert passed == 15
        assert path.read_text().startswith("# EXPERIMENTS")
