"""Campaign telemetry: run directories, SLOs, resume, and progress.

The acceptance claim under test: a campaign killed mid-sweep and
re-invoked with the same parameters resumes from its run directory,
re-executes **zero** completed cells (proven by the summary's resume
counters), and still produces a merged trace byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz import run_campaign
from repro.obs.artifacts import (
    RUN_SCHEMA,
    RunDir,
    SLOConfig,
    compute_run_id,
    evaluate_slos,
    identity_for_requests,
)
from repro.obs.report import (
    coverage_over_cells,
    find_run_dir,
    merge_span_snapshots,
    render_report,
    report_json,
    run_progress,
    summarize_sweep,
    summary_problems,
)
from repro.runtime import (
    ResultCache,
    ScenarioSpace,
    SweepRunner,
    oracle_sweep_space,
    run_space,
)


def _space(count=6):
    space = oracle_sweep_space()
    return ScenarioSpace.explicit("artifact-test", space.requests[:count])


def _open_run(tmp_path, requests, **overrides):
    options = dict(
        kind="sweep",
        name="artifact-test",
        identity=identity_for_requests(requests),
        cells=[(r.name, r.cache_key()) for r in requests],
        config={"space": "artifact-test"},
    )
    options.update(overrides)
    return RunDir.open(tmp_path / "runs", **options)


def _on_run_for(run_dir):
    def on_run(requests, results):
        request, result = requests[0], results[0]
        profile = result.extra.get("profile") or {}
        run_dir.record_cell(
            [(r.name, res.request_key) for r, res in zip(requests, results)],
            cached=result.cached,
            engine=request.engine,
            algorithm=request.algorithm,
            latency=result.latency,
            num_rounds=result.num_rounds,
            events=len(result.events),
            duration_s=profile.get("duration_s"),
        )

    return on_run


class TestRunId:
    def test_stable_and_content_sensitive(self):
        assert compute_run_id("sweep", ["a", "b"]) == compute_run_id(
            "sweep", ["a", "b"]
        )
        assert compute_run_id("sweep", ["a", "b"]) != compute_run_id(
            "sweep", ["a", "c"]
        )
        assert compute_run_id("sweep", ["a"]) != compute_run_id("fuzz", ["a"])

    def test_identity_ignores_request_order(self):
        space = _space(4)
        forward = identity_for_requests(space.requests)
        backward = identity_for_requests(list(reversed(space.requests)))
        assert forward == backward

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunDir.open(tmp_path, kind="mystery", name="x", identity=[])


class TestRunDir:
    def test_open_writes_manifest(self, tmp_path):
        space = _space(3)
        run = _open_run(tmp_path, space.requests)
        manifest = json.loads((run.path / "manifest.json").read_text())
        assert manifest["schema"] == RUN_SCHEMA
        assert manifest["kind"] == "sweep"
        assert manifest["status"] == "running"
        assert manifest["legs"] == 1
        assert manifest["planned"] == 3
        assert len(manifest["cells"]) == 3

    def test_reopen_same_identity_bumps_legs(self, tmp_path):
        space = _space(3)
        first = _open_run(tmp_path, space.requests)
        again = _open_run(tmp_path, space.requests)
        assert again.path == first.path
        assert again.manifest["legs"] == 2

    def test_finalize_flips_status_and_writes_summary(self, tmp_path):
        space = _space(2)
        run = _open_run(tmp_path, space.requests)
        run.finalize({"coverage": {"fraction": 1.0}})
        assert run.manifest["status"] == "complete"
        summary = json.loads((run.path / "summary.json").read_text())
        # finalize backfills the identity triplet.
        assert summary["schema"] == RUN_SCHEMA
        assert summary["run_id"] == run.run_id
        assert summary["kind"] == "sweep"

    def test_record_cell_appends_audit_lines(self, tmp_path):
        space = _space(2)
        run = _open_run(tmp_path, space.requests)
        run.record_cell([("cell-0", "k0")], cached=False, engine="rounds")
        run.record_cell([("cell-1", "k1")], cached=True)
        records = run.metrics_records()
        assert [r["cell"] for r in records] == ["cell-0", "cell-1"]
        assert [r["cached"] for r in records] == [False, True]
        assert all(r["t"] == "cell" and r["leg"] == 1 for r in records)

    def test_load_round_trips(self, tmp_path):
        space = _space(2)
        run = _open_run(tmp_path, space.requests)
        loaded = RunDir.load(run.path)
        assert loaded.run_id == run.run_id
        assert loaded.kind == "sweep"

    def test_find_run_dir_resolves_root_with_one_run(self, tmp_path):
        space = _space(2)
        run = _open_run(tmp_path, space.requests)
        assert find_run_dir(tmp_path / "runs") == run.path
        assert find_run_dir(run.path) == run.path

    def test_find_run_dir_rejects_ambiguous_root(self, tmp_path):
        space = _space(3)
        _open_run(tmp_path, space.requests[:2])
        _open_run(tmp_path, space.requests[1:])
        with pytest.raises(FileNotFoundError):
            find_run_dir(tmp_path / "runs")


class TestSLOs:
    def test_clean_summary_passes(self):
        summary = {
            "coverage": {"fraction": 1.0},
            "oracle": {"checked": 5, "failed": 0},
            "cache": {"corrupt_evictions": 0},
        }
        verdicts = evaluate_slos(SLOConfig(), summary)
        assert [v["slo"] for v in verdicts] == [
            "coverage",
            "oracle_failures",
            "corrupt_evictions",
        ]
        assert all(v["ok"] for v in verdicts)

    def test_partial_coverage_fails(self):
        verdicts = evaluate_slos(
            SLOConfig(), {"coverage": {"fraction": 0.5}}
        )
        assert verdicts == [
            {"slo": "coverage", "threshold": 1.0, "actual": 0.5, "ok": False}
        ]

    def test_slo_config_round_trips(self):
        config = SLOConfig(min_coverage=0.9, max_oracle_failures=2)
        assert SLOConfig.from_dict(config.to_dict()) == config
        # An older manifest's thresholds this config no longer has are
        # dropped on load.
        older = {**config.to_dict(), "decision_latency_p99_ms": 5000.0}
        assert SLOConfig.from_dict(older) == config


class TestReportHelpers:
    def test_merge_span_snapshots_folds_counts_and_totals(self):
        merged = merge_span_snapshots(
            [
                {"a": {"count": 2, "total_s": 1.0, "max_s": 0.8}},
                None,
                {"a": {"count": 1, "total_s": 0.5, "max_s": 0.5},
                 "b": {"count": 1, "total_s": 0.1, "max_s": 0.1}},
            ]
        )
        assert merged["a"]["count"] == 3
        assert merged["a"]["total_s"] == pytest.approx(1.5)
        assert merged["a"]["max_s"] == pytest.approx(0.8)
        assert merged["a"]["mean_s"] == pytest.approx(0.5)
        assert merged["b"]["count"] == 1

    def test_coverage_over_cells(self):
        planned = [("c0", "k0"), ("c1", "k1"), ("c2", "k2")]
        coverage = coverage_over_cells(
            planned, {"k0", "k2"}, {"k0": "rounds", "k1": "rounds", "k2": "rs_on_ss"}
        )
        assert coverage["planned"] == 3
        assert coverage["completed"] == 2
        assert coverage["by_engine"]["rounds"] == {
            "planned": 2,
            "completed": 1,
        }

    def test_summary_problems_flags_malformed_documents(self):
        assert summary_problems("not a dict")
        assert summary_problems({"schema": 99})
        bad_coverage = {
            "schema": RUN_SCHEMA,
            "run_id": "x",
            "kind": "sweep",
            "coverage": {"planned": 1, "completed": 2, "fraction": 2.0},
            "resume": {},
            "slo_verdicts": [],
        }
        problems = summary_problems(bad_coverage)
        assert any("completed" in p for p in problems)
        assert any("fraction" in p for p in problems)


class TestCacheStats:
    def test_counts_hits_misses_and_stores(self, tmp_path):
        space = _space(3)
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(space)
        assert cache.stats.as_dict() == {
            "hits": 0,
            "misses": 3,
            "stores": 3,
            "corrupt_evictions": 0,
        }
        warm = ResultCache(tmp_path / "cache")
        SweepRunner(cache=warm).run(space)
        assert warm.stats.hits == 3
        assert warm.stats.misses == 0

    def test_corrupt_entry_counts_as_eviction_and_surfaces(self, tmp_path):
        space = _space(2)
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run(space)
        (shard,) = (tmp_path / "cache").glob("shard-*.jsonl")
        # Tear the last record, as a writer killed mid-put would.
        shard.write_bytes(shard.read_bytes()[:-40])
        retry = ResultCache(tmp_path / "cache")
        result = SweepRunner(cache=retry).run(space)
        assert retry.stats.corrupt_evictions == 1
        assert result.cache_stats["corrupt_evictions"] == 1
        assert "corrupt" in result.describe()


class TestResumeFromManifest:
    """The acceptance criterion: kill at ~50%, restart, zero re-execution."""

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path):
        space = _space(6)
        requests = space.requests

        # The uninterrupted reference run.
        reference = SweepRunner().run(space)
        reference_lines = list(reference.merged_jsonl_lines())

        # Leg 1: die after 3 cells, mid-campaign.
        run = _open_run(tmp_path, requests)
        cache = ResultCache(run.results_dir)
        seen = []

        def dying_on_run(requests, results):
            _on_run_for(run)(requests, results)
            seen.extend(result.request_key for result in results)
            if len(seen) == 3:
                raise KeyboardInterrupt

        runner = SweepRunner(cache=cache, on_run=dying_on_run)
        with pytest.raises(KeyboardInterrupt):
            runner.run(space)
        run.mark_interrupted()
        assert run.manifest["status"] == "interrupted"
        completed_mid = run.completed_keys()
        assert len(completed_mid) == 3

        # Leg 2: same campaign, fresh invocation against the same root.
        resumed = _open_run(tmp_path, requests)
        assert resumed.path == run.path
        assert resumed.manifest["legs"] == 2
        completed_before = resumed.completed_keys()
        cache2 = ResultCache(resumed.results_dir)
        executed_keys = []

        def tracking_on_run(requests, results):
            _on_run_for(resumed)(requests, results)
            executed_keys.extend(
                result.request_key for result in results if not result.cached
            )

        sweep = SweepRunner(cache=cache2, on_run=tracking_on_run).run(space)
        summary = summarize_sweep(
            resumed, sweep, completed_before=completed_before
        )
        resumed.finalize(summary)

        # Zero re-execution, proven by the summary's own counters.
        assert summary["resume"]["completed_before"] == 3
        assert summary["resume"]["executed"] == 3
        assert summary["resume"]["cached"] == 3
        assert summary["resume"]["re_executed"] == 0
        assert set(executed_keys) & completed_before == set()
        assert summary["coverage"]["fraction"] == 1.0
        assert summary_problems(summary) == []

        # And the merged trace matches the uninterrupted run, byte for byte.
        assert list(sweep.merged_jsonl_lines()) == reference_lines

    def test_fuzz_campaign_resumes_from_run_root(self, tmp_path):
        baseline = run_campaign(budget=4, seed=11)
        report = run_campaign(
            budget=4, seed=11, run_root=str(tmp_path / "runs")
        )
        assert report.run_dir is not None
        run = RunDir.load(report.run_dir)
        summary = run.summary()
        assert summary["resume"]["re_executed"] == 0
        assert summary["coverage"]["fraction"] == 1.0
        assert summary_problems(summary) == []
        assert summary["fuzz"]["budget"] == 4
        assert report.ok == baseline.ok

        # Re-invoking the identical campaign is a pure cache replay.
        again = run_campaign(
            budget=4, seed=11, run_root=str(tmp_path / "runs")
        )
        rerun = RunDir.load(again.run_dir)
        assert rerun.path == run.path
        resummary = rerun.summary()
        assert resummary["resume"]["executed"] == 0
        assert resummary["resume"]["re_executed"] == 0
        assert rerun.manifest["legs"] == 2


class TestRendering:
    def _finished_run(self, tmp_path):
        space = _space(4)
        run = _open_run(tmp_path, space.requests)
        cache = ResultCache(run.results_dir)
        sweep = SweepRunner(cache=cache, on_run=_on_run_for(run)).run(space)
        run.finalize(summarize_sweep(run, sweep, completed_before=set()))
        return run

    def test_render_report_covers_the_dashboard(self, tmp_path):
        run = self._finished_run(tmp_path)
        text = render_report(run)
        assert f"run {run.run_id}" in text
        assert "coverage: 4/4" in text
        assert "SLO: PASS" in text
        assert "resume:" in text

    def test_report_json_document_validates(self, tmp_path):
        run = self._finished_run(tmp_path)
        document = report_json(run)
        assert document["manifest"]["run_id"] == run.run_id
        assert summary_problems(document["summary"]) == []


class TestCLISurfaces:
    def test_sweep_run_dir_then_report(self, tmp_path, capsys):
        from repro.cli.main import main

        root = str(tmp_path / "runs")
        assert main(["sweep", "oracle-sweep", "--run-dir", root]) == 0
        out = capsys.readouterr().out
        assert "run artifacts:" in out

        assert main(["report", root]) == 0
        out = capsys.readouterr().out
        assert "SLO: PASS" in out
        assert "coverage: 30/30" in out

        assert main(["report", root, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert summary_problems(document["summary"]) == []
        assert document["progress"] is None

    def test_sweep_resume_via_cli_reports_zero_reexecution(
        self, tmp_path, capsys
    ):
        from repro.cli.main import main

        root = str(tmp_path / "runs")
        assert main(["sweep", "oracle-sweep", "--run-dir", root]) == 0
        capsys.readouterr()
        assert main(["sweep", "oracle-sweep", "--run-dir", root]) == 0
        assert "cached 30" in capsys.readouterr().out
        summary = RunDir.load(find_run_dir(root)).summary()
        assert summary["resume"]["executed"] == 0
        assert summary["resume"]["re_executed"] == 0

    def test_report_on_an_old_live_run_directory(self, tmp_path, capsys):
        # What the removed wall-clock engine left on disk: a kind no
        # writer produces.  The dashboard refuses it the way the summary
        # validator does — the problem on stderr, exit 1, no SLO verdict.
        from repro.cli.main import main

        run = tmp_path / "0123456789abcdef"
        run.mkdir()
        slo = {**SLOConfig().to_dict(), "decision_latency_p99_ms": 5000.0}
        (run / "manifest.json").write_text(json.dumps({
            "schema": RUN_SCHEMA, "kind": "live",
            "run_id": "0123456789abcdef", "name": "live-floodset-lan",
            "status": "complete", "legs": 1, "slo": slo,
            "cells": [{"name": "session-0", "key": "session-0"}],
            "planned": 1,
        }))
        summary = {
            "schema": RUN_SCHEMA, "run_id": "0123456789abcdef", "kind": "live",
            "coverage": {"planned": 1, "completed": 1, "fraction": 1.0},
            "live": {"algorithm": "floodset", "decision_latency_ms": None},
            "slo_verdicts": [
                {"slo": "coverage", "threshold": 1.0, "actual": 1.0, "ok": True}
            ],
        }
        (run / "summary.json").write_text(json.dumps(summary))
        assert summary_problems(summary) == [
            "kind 'live' not in ('sweep', 'fuzz')"
        ]
        for json_flag in ([], ["--json"]):
            assert main(["report", str(run), *json_flag]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {run / 'summary.json'}: "
                "kind 'live' not in ('sweep', 'fuzz')\n"
            )

    def test_report_on_missing_directory_fails_cleanly(
        self, tmp_path, capsys
    ):
        from repro.cli.main import main

        assert main(["report", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_json_includes_percentiles(self, capsys):
        from repro.cli.main import main

        assert main(["metrics", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        histogram = snapshot["histograms"]["decision.round"]
        assert {"p50", "p90", "p99"} <= set(histogram)

    def test_metrics_render_shows_p99(self, capsys):
        from repro.cli.main import main

        assert main(["metrics"]) == 0
        assert "p99=" in capsys.readouterr().out


class TestInProgressReporting:
    """Reports on a run that has not finalized — an overnight campaign
    mid-flight must stay reportable."""

    def _half_finished_run(self, tmp_path):
        requests = _space(4).requests
        run = _open_run(tmp_path, requests)
        on_run = _on_run_for(run)
        for request in requests[:2]:
            result = run_space(
                ScenarioSpace.explicit("half", [request])
            ).results[0]
            on_run([request], [result])
        return run

    def test_report_json_flags_unfinalized_run(self, tmp_path):
        run = self._half_finished_run(tmp_path)
        document = report_json(run)
        assert document["in_progress"] is True
        assert document["summary"] is None
        assert document["manifest"]["run_id"] == run.run_id
        assert document["progress"] == {"done": 2, "planned": 4}
        # render_report must not crash either — it is what `repro
        # report` prints for a running campaign.
        assert render_report(run).endswith(
            "\nprogress: 2/4 planned cells done"
        )

        run.finalize(summary={"schema": RUN_SCHEMA, "status": "complete"})
        assert report_json(run)["in_progress"] is False
        assert report_json(run)["progress"] is None

    def test_report_json_before_first_cell(self, tmp_path):
        # metrics.jsonl is appended lazily; a freshly opened run dir has
        # none, and that is still a reportable (empty) partial.
        run = _open_run(tmp_path, _space(2).requests)
        assert report_json(run)["in_progress"] is True
        assert run_progress(run) == {"done": 0, "planned": 2}
        assert "progress: 0/2 planned cells done" in render_report(run)

    def test_progress_counts_planned_cells_not_lines(self, tmp_path):
        # A cell a later leg served again, a twin the plan does not
        # name and a line a killed leg left torn all count nothing.
        run = self._half_finished_run(tmp_path)
        planned = run.metrics_records()
        with open(run.path / "metrics.jsonl", "a", encoding="utf-8") as out:
            out.write(json.dumps({**planned[0], "leg": 2}) + "\n")
            out.write(json.dumps({**planned[0], "key": "twin"}) + "\n")
            out.write('{"t": "cell", "key": ')
        assert run_progress(run) == {"done": 2, "planned": 4}

    @pytest.mark.parametrize("status", ["running", "interrupted"])
    def test_an_unfinished_run_reports_its_count(
        self, tmp_path, capsys, status
    ):
        # The status, not the summary, says whether the run finished: a
        # leg that dies after an earlier leg's summary.json is unfinished.
        from repro.cli.main import main

        root = tmp_path / "runs"
        assert main(["sweep", "e10-lambda", "--run-dir", str(root)]) == 0
        capsys.readouterr()
        run = RunDir.load(find_run_dir(root))
        planned = run.manifest["planned"]
        run.manifest["status"] = status
        run._write_manifest()
        assert main(["report", str(root)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-1] == (
            f"progress: {planned}/{planned} planned cells done"
        )
        assert main(["report", str(root), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["in_progress"] is True
        assert document["summary"] is None
        assert document["progress"] == {"done": planned, "planned": planned}

    @pytest.mark.parametrize("damage", ["cut", "missing"])
    def test_a_finished_run_with_a_damaged_summary_is_refused(
        self, tmp_path, capsys, damage
    ):
        # It used to be reported as still running, exit 0, while
        # scripts/check_summary.py called the same directory INVALID.
        from repro.cli.main import main

        root = tmp_path / "runs"
        assert main(["sweep", "e10-lambda", "--run-dir", str(root)]) == 0
        capsys.readouterr()
        path = find_run_dir(root) / "summary.json"
        if damage == "cut":
            path.write_bytes(path.read_bytes()[:40])
        else:
            path.unlink()
        for json_flag in ([], ["--json"]):
            assert main(["report", str(root), *json_flag]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith(f"error: {path}: ")
