"""Sharded checking: mc:... serve specs and solo/serve resume parity."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mc import McTask, check, mc_space_from_spec, spec_for_task
from repro.mc.space import parse_spec
from repro.obs.artifacts import RunDir
from repro.obs.report import render_report, summary_problems
from repro.serve import Coordinator, execute_shard

import pytest

TASK = McTask(
    property_name="agreement",
    algorithm="floodset",
    n=3,
    t=1,
    model="RS",
    horizon=3,
)


class TestSpecRoundTrip:
    def test_spec_rebuilds_the_same_space(self):
        spec = spec_for_task(TASK)
        assert spec.startswith("mc:agreement:floodset:")
        space = mc_space_from_spec(spec)
        solo = check(TASK)
        assert space.name == solo.sweep.space_name
        assert [r.cache_key() for r in space.requests] == [
            r.request_key for r in solo.sweep.results
        ]

    def test_parse_spec_recovers_parameters(self):
        params = parse_spec(spec_for_task(TASK))
        assert params["algorithm"] == "floodset"
        assert params["n"] == 3 and params["t"] == 1
        assert params["model"] == "RS"
        assert McTask(**params) == TASK

    def test_spec_without_horizon_takes_the_task_default(self):
        # max(3, t + 1): one rule for the CLI and for serve specs
        for spec, horizon in (
            ("mc:agreement:floodset:n=4:t=2", 3),
            ("mc:termination:floodset:n=4:t=3", 4),
            ("mc:termination:floodset:n=4:t=3:horizon=2", 2),
        ):
            assert McTask(**parse_spec(spec)).horizon == horizon

    def test_malformed_spec_is_rejected(self):
        with pytest.raises(ConfigurationError):
            mc_space_from_spec("sweep:all:floodset")

    def test_non_integer_field_is_one_error_line_exit_2(self, capsys):
        from repro.cli.main import main

        spec = "mc:agreement:floodset:n=x"
        assert main(["serve", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and spec in err
        assert len(err.splitlines()) == 1

    def test_lambda_and_grid_specs_plan_as_the_solo_check_does(self):
        for task in (
            McTask(property_name="lambda", algorithm="a1"),
            McTask(
                property_name="agreement", algorithm="floodset", engine="rs_on_ss"
            ),
        ):
            space = mc_space_from_spec(spec_for_task(task))
            solo = check(task)
            assert [r.cache_key() for r in space.requests] == [
                r.request_key for r in solo.sweep.results
            ]


class TestServeResumesSolo:
    def _drive(self, coordinator):
        while True:
            grant = coordinator.claim("w1")
            if grant.get("done"):
                break
            results = execute_shard(grant)
            receipt = coordinator.submit(
                {
                    "shard_id": grant["shard_id"],
                    "lease_id": grant["lease_id"],
                    "worker_id": "w1",
                    "results": results,
                }
            )
            assert receipt["stale"] is False
        return coordinator.finalize()

    def test_sharded_run_then_solo_check_reexecutes_nothing(self, tmp_path):
        root = str(tmp_path / "runs")
        space = mc_space_from_spec(spec_for_task(TASK))
        _, summary = self._drive(
            Coordinator(space, run_root=root, shard_size=3)
        )
        assert summary["serve"]["cells"]["executed"] == len(space.requests)

        # The solo checker opens the very same run directory (same
        # space name + identity), finds every cell cached, and still
        # recomputes the full verdict.
        resumed = check(
            McTask(**{**TASK.__dict__, "run_root": root})
        )
        assert resumed.sweep.executed == 0
        assert resumed.sweep.cached == len(space.requests)

        fresh = check(TASK)
        assert resumed.verdict.to_dict() == fresh.verdict.to_dict()

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

    def test_serve_then_solo(self, tmp_path):
        root = str(tmp_path / "runs")
        space = mc_space_from_spec(spec_for_task(TASK))
        TestServeResumesSolo()._drive(
            Coordinator(space, run_root=root, shard_size=3)
        )
        solo = check(McTask(**{**TASK.__dict__, "run_root": root}))
        summary = self._summary(solo, executed=0)
        assert summary["resume"]["completed_before"] == len(space.requests)
        assert RunDir.load(solo.run_dir).manifest["legs"] == 2
