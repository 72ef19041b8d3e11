"""The run-directory lifecycle, tested once: ``CampaignLeg``.

``sweep``, ``fuzz`` and ``mc`` all hold their run directory
through one :class:`repro.runtime.campaign.CampaignLeg`, so the
contract — what a leg writes, and that no way of leaving it strands the
manifest at ``"running"`` — is pinned here against the class, with one
regression per command for the bugs the private copies had.
The goldens at the bottom were captured at the parent commit: the
rebuild may not change what lands on disk.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.errors import ConfigurationError
from repro.fuzz import run_campaign
from repro.mc import McTask, check
from repro.obs.artifacts import RunDir
from repro.obs.report import summarize_sweep, summary_problems
from repro.runtime import (
    ResultCache,
    ScenarioSpace,
    SweepRunner,
    oracle_sweep_space,
    space_by_name,
)
from repro.runtime.campaign import CampaignLeg

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _space(count=5):
    return ScenarioSpace.explicit(
        "leg-test", oracle_sweep_space().requests[:count]
    )


def _leg(root, space, **overrides):
    options = dict(
        kind="sweep",
        name=space.name,
        requests=space.requests,
        config={"space": space.name},
    )
    options.update(overrides)
    return CampaignLeg(None if root is None else str(root), **options)


def _run(leg, space):
    return SweepRunner(cache=leg.cache, on_run=leg.on_run).run(
        space, keys=leg.keys
    )


def _last_progress(run_dir):
    return run_dir.progress_records()[-1]


class TestInertLeg:
    def test_no_root_creates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        space = _space()
        with _leg(None, space) as leg:
            assert leg.run_dir is None and leg.path is None
            assert leg.cache is None
            assert leg.completed_before == set()
            result = _run(leg, space)
            leg.audit([space.requests[0]], [result.results[0]])
            summarised = []
            assert leg.finalize(summarised.append) is None
            assert summarised == []  # the summariser never ran
        assert result.executed == len(space.requests)
        # No store and no run directory anywhere.
        assert list(tmp_path.iterdir()) == []

    def test_no_root_no_cache(self):
        assert _leg(None, _space()).cache is None


class TestOpenLeg:
    def test_manifest_plan_and_store(self, tmp_path):
        space = _space()
        with _leg(tmp_path, space) as leg:
            manifest = json.loads((leg.path / "manifest.json").read_text())
            assert manifest["status"] == "running"
            assert manifest["legs"] == 1
            assert manifest["planned"] == len(space.requests)
            assert manifest["cells"] == [
                {"name": r.name, "key": r.cache_key()} for r in space.requests
            ]
            assert isinstance(leg.cache, ResultCache)
            assert leg.cache.directory == leg.run_dir.results_dir
            assert leg.completed_before == set()

    def test_one_metrics_line_per_on_cell_and_audit_counts_nothing(
        self, tmp_path
    ):
        space = _space()
        with _leg(tmp_path, space) as leg:
            result = _run(leg, space)
            run_dir = leg.run_dir
            assert [r["cell"] for r in run_dir.metrics_records()] == [
                r.name for r in space.requests
            ]
            # The audit-only variant writes its line but leaves the
            # heartbeat's counter alone (fuzz twins are derived work).
            leg.audit([space.requests[0]], [result.results[0]])
            assert len(run_dir.metrics_records()) == len(space.requests) + 1
            assert leg.reporter.heartbeat()["done"] == len(space.requests)
            # A result served from the store: flagged cached, with the
            # figures the store kept and counted as done.
            stored = leg.cache.get(space.requests[1].cache_key())
            leg.on_run([space.requests[1]], [stored])
            line = run_dir.metrics_records()[-1]
            assert line["cached"] is True
            assert line["latency"] == result.results[1].latency
            assert line["key"] == space.requests[1].cache_key()
            assert leg.reporter.heartbeat()["done"] == len(space.requests) + 1
            assert leg.reporter.heartbeat()["cached"] == 1
            leg.finalize(lambda run: {})

    def test_completed_before_is_the_store_restricted_to_the_plan(
        self, tmp_path
    ):
        space = _space(5)
        head = ScenarioSpace.explicit(space.name, space.requests[:2])
        with _leg(tmp_path, space) as first:
            # Two planned cells land in the store...
            SweepRunner(cache=first.cache, on_run=first.on_run).run(head)
            stray = oracle_sweep_space().requests[7]
            SweepRunner(cache=first.cache).run(
                ScenarioSpace.explicit("stray", [stray])
            )  # ...and one the plan does not name (a fuzz twin, say)
        second = _leg(tmp_path, space)
        assert second.path == first.path
        assert second.run_dir.manifest["legs"] == 2
        assert second.completed_before == {
            r.cache_key() for r in space.requests[:2]
        }
        assert stray.cache_key() in second.cache.completed_keys()
        second.interrupt()


class _Boom(Exception):
    pass


class TestEndings:
    @pytest.mark.parametrize(
        "exception", [_Boom, KeyboardInterrupt, SystemExit], ids=lambda e: e.__name__
    )
    def test_any_exception_marks_the_leg_interrupted(self, tmp_path, exception):
        space = _space()
        with pytest.raises(exception):
            with _leg(tmp_path, space) as leg:
                _run(leg, space)
                raise exception()
        run_dir = RunDir.load(leg.path)
        assert run_dir.manifest["status"] == "interrupted"
        assert _last_progress(run_dir)["status"] == "interrupted"
        assert _last_progress(run_dir)["done"] == len(space.requests)
        assert leg.run_dir._metrics is None  # the audit handle is closed
        assert run_dir.summary() is None

    def test_leaving_without_a_verdict_is_interrupted_too(self, tmp_path):
        with _leg(tmp_path, _space()) as leg:
            pass
        assert RunDir.load(leg.path).manifest["status"] == "interrupted"

    def test_a_summariser_that_raises_interrupts_the_leg(self, tmp_path):
        space = _space()

        def summarize(run):
            raise _Boom()

        with pytest.raises(_Boom):
            with _leg(tmp_path, space) as leg:
                _run(leg, space)
                leg.finalize(summarize)
        assert RunDir.load(leg.path).manifest["status"] == "interrupted"
        # ... and the next leg finishes it without re-executing anything.
        with _leg(tmp_path, space) as second:
            result = _run(second, space)
            summary = second.finalize(
                lambda run: summarize_sweep(
                    run, result, completed_before=second.completed_before
                )
            )
        assert second.run_dir.manifest["legs"] == 2
        assert summary["resume"]["re_executed"] == 0
        assert summary["resume"]["cached"] == len(space.requests)

    def test_finalize_completes_the_leg(self, tmp_path):
        space = _space()
        with _leg(tmp_path, space) as leg:
            result = _run(leg, space)
            summary = leg.finalize(
                lambda run: summarize_sweep(
                    run, result, completed_before=leg.completed_before
                )
            )
        run_dir = RunDir.load(leg.path)
        assert run_dir.manifest["status"] == "complete"
        assert _last_progress(run_dir)["status"] == "complete"
        assert leg.run_dir._metrics is None
        assert run_dir.summary() == json.loads(json.dumps(summary))
        assert summary_problems(run_dir.summary()) == []

    def test_finalize_twice_or_after_exit_is_an_error(self, tmp_path):
        with _leg(tmp_path, _space()) as leg:
            leg.finalize(lambda run: {"first": True})
            with pytest.raises(RuntimeError, match="already closed"):
                leg.finalize(lambda run: {"second": True})
        with pytest.raises(RuntimeError, match="already closed"):
            leg.finalize(lambda run: {"third": True})
        assert leg.run_dir.summary()["first"] is True
        assert leg.run_dir.manifest["status"] == "complete"

        with _leg(tmp_path / "other", _space()) as left:
            pass
        with pytest.raises(RuntimeError, match="already closed"):
            left.finalize(lambda run: {})
        assert left.run_dir.summary() is None

    def test_unwritable_root_is_a_configuration_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(ConfigurationError, match="cannot create run directory"):
            _leg(blocker / "runs", _space())


# ---------------------------------------------------------------------------
# One regression per command for what the private copies got wrong
# ---------------------------------------------------------------------------

MC_TASK = dict(property_name="agreement", algorithm="floodset", n=3, t=1)


def _only_run(root):
    (path,) = Path(root).iterdir()
    return RunDir.load(path)


class TestFailureAfterTheSweep:
    """The copies guarded ``runner.run`` alone; the leg guards the rest."""

    def test_mc_property_evaluation_failure_interrupts_then_resumes(
        self, tmp_path, monkeypatch
    ):
        import repro.mc.checker as checker

        def explode(*args, **kwargs):
            raise _Boom()

        root = str(tmp_path / "runs")
        with monkeypatch.context() as patch:
            patch.setattr(checker, "evaluate_property", explode)
            with pytest.raises(_Boom):
                check(McTask(**MC_TASK, run_root=root))
        run_dir = _only_run(root)
        assert run_dir.manifest["status"] == "interrupted"
        assert _last_progress(run_dir)["status"] == "interrupted"

        resumed = check(McTask(**MC_TASK, run_root=root))
        run_dir = _only_run(root)
        assert run_dir.manifest["status"] == "complete"
        assert run_dir.manifest["legs"] == 2
        assert run_dir.summary()["resume"]["re_executed"] == 0
        assert resumed.sweep.executed == 0

    def test_fuzz_summarisation_failure_interrupts_then_resumes(
        self, tmp_path, monkeypatch
    ):
        import repro.fuzz.campaign as campaign

        def explode(*args, **kwargs):
            raise _Boom()

        root = str(tmp_path / "runs")
        options = dict(budget=6, seed=0, engines=("rounds",), run_root=root)
        with monkeypatch.context() as patch:
            patch.setattr(campaign, "summarize_fuzz", explode)
            with pytest.raises(_Boom):
                run_campaign(**options)
        run_dir = _only_run(root)
        assert run_dir.manifest["status"] == "interrupted"
        assert _last_progress(run_dir)["status"] == "interrupted"

        report = run_campaign(**options)
        run_dir = _only_run(root)
        assert run_dir.manifest["status"] == "complete"
        assert run_dir.manifest["legs"] == 2
        assert run_dir.summary()["resume"]["re_executed"] == 0
        assert report.executed == 0

    def test_malformed_bound_is_refused_before_anything_runs(
        self, tmp_path, monkeypatch
    ):
        import repro.mc.checker as checker

        def never(task):
            raise AssertionError("planned (explored) before validating")

        monkeypatch.setattr(checker, "_plan", never)
        root = tmp_path / "runs"
        with pytest.raises(ConfigurationError, match="malformed bound"):
            check(
                McTask(
                    property_name="lambda",
                    algorithm="a1",
                    bound="garbage",
                    run_root=str(root),
                )
            )
        assert not root.exists()

    def test_malformed_bound_on_the_cli(self, tmp_path, capsys):
        root = tmp_path / "runs"
        code = main(
            ["mc", "lambda", "--algorithm", "a1", "--bound", "garbage",
             "--run-dir", str(root)]
        )
        assert code == 2
        assert "malformed bound 'garbage'" in capsys.readouterr().err
        assert not root.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "e10-lambda"], "cannot create run directory"),
        (["fuzz", "--budget", "4"], "cannot create run directory"),
        (["mc", "agreement", "--algorithm", "floodset"],
         "cannot create run directory"),
        # A command, a space and an engine that do not exist: refused
        # before a run directory is tried.
        (["live"], "invalid choice: 'live'"),
        (["sweep", "live-smoke"], "unknown scenario space 'live-smoke'"),
        (["fuzz", "--engine", "live"], "invalid choice: 'live'"),
    ],
    ids=["sweep", "fuzz", "mc", "live", "sweep-live-smoke", "fuzz-engine-live"],
)
def test_unwritable_run_dir_is_one_error_line_not_a_traceback(
    argv, message, tmp_path
):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--run-dir", str(blocker / "x")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    (line,) = [l for l in proc.stderr.splitlines() if "error: " in l]
    assert message in line


def test_a_leg_closes_every_store_handle_it_opened(tmp_path):
    # A cold leg used to leave its shard writer to the garbage collector
    # and a warm one its shard readers, each a ResourceWarning.
    argv = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
            "-m", "repro", "sweep", "random-rws", "--count", "30", "--check",
            "--run-dir", str(tmp_path / "runs")]
    for leg in ("cold", "warm"):
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 0, (leg, proc.stderr)
        assert "ResourceWarning" not in proc.stderr, (leg, proc.stderr)
        assert "Exception ignored" not in proc.stderr, (leg, proc.stderr)
        assert ("executed 0," in proc.stdout) == (leg == "warm"), proc.stdout


@pytest.mark.parametrize("command", ["sweep"])
class TestRefusedBeforeAnythingRuns:
    """Usage errors of ``space_by_name``'s caller: one ``error:`` line,
    exit 2, and no run directory left behind."""

    def _refused(self, argv, capsys, root):
        assert main(argv + ["--run-dir", str(root)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert captured.out == "" and not root.exists()
        return line

    def test_unwritable_merged_trace(
        self, command, tmp_path, capsys, monkeypatch
    ):
        # No sweep may start before the sink is known to open.
        monkeypatch.setattr(
            SweepRunner, "run", lambda *a, **k: pytest.fail("the sweep ran")
        )
        path = tmp_path / "missing" / "merged.jsonl"
        line = self._refused(
            [command, "random-rs", "--count", "3", "--jsonl", str(path)],
            capsys, tmp_path / "runs",
        )
        assert line == (
            f"error: cannot write merged trace to {path}: "
            "No such file or directory"
        )

    def test_negative_count(self, command, tmp_path, capsys):
        line = self._refused(
            [command, "random-rs", "--count", "-3", "--check"],
            capsys, tmp_path / "runs",
        )
        assert "count must be >= 0, got -3" in line

    @pytest.mark.parametrize(
        "space, option",
        [("e10-lambda", "--count"), ("e10-lambda", "--seed")],
    )
    def test_option_the_space_does_not_take(
        self, command, space, option, tmp_path, capsys
    ):
        # `sweep e10-lambda --count 0 --check` used to run its 32 fixed
        # cells and exit 0: the count was silently ignored.
        line = self._refused(
            [command, space, option, "0", "--check"], capsys, tmp_path / "runs"
        )
        assert line.startswith(f"error: space {space!r} takes no {option[2:]}")


def test_fuzz_refuses_a_negative_budget_before_anything_runs(tmp_path, capsys):
    root = tmp_path / "runs"
    assert main(["fuzz", "--budget", "-3", "--run-dir", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: budget must be >= 1"]
    assert captured.out == "" and not root.exists()


def test_count_zero_stays_a_legal_empty_space(tmp_path, capsys):
    assert main(["sweep", "random-rs", "--count", "0"]) == 0
    assert "0 scenarios" in capsys.readouterr().out
    with pytest.raises(ConfigurationError, match="count must be >= 0"):
        space_by_name("oracle-sweep", count=-1)
    # Checking it is vacuous: an empty space passes every check, so
    # --check refuses to call it clean (it used to exit 0 on "0/0 cells
    # clean"), with or without a run directory and a merged trace.
    for extra in ([], ["--run-dir", str(tmp_path / "runs"),
                       "--jsonl", str(tmp_path / "merged.jsonl")]):
        argv = ["sweep", "random-rs", "--count", "0", "--check", *extra]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "0 scenarios" in out
        assert "oracle: 0/0 cells — vacuous, nothing checked" in out
        assert "cells clean" not in out
    assert (tmp_path / "merged.jsonl").read_bytes() == b""


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "random-rs", "--count", "2"],
        ["fuzz", "--budget", "2"],
        ["mc", "agreement", "--algorithm", "floodset"],
        ["experiments", "--ids", "E1"],
    ],
    ids=lambda argv: argv[0],
)
def test_jobs_below_one_is_refused_before_anything_runs(
    argv, jobs, tmp_path, capsys
):
    # Used to be accepted silently and run serially (exit 0).
    root = tmp_path / "runs"
    takes_run_dir = argv[0] in ("sweep", "fuzz", "mc")
    extra = ["--run-dir", str(root)] if takes_run_dir else []
    assert main(argv + ["--jobs", jobs] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not root.exists()
    assert captured.err == f"error: --jobs must be at least 1 (got {jobs})\n"


@pytest.mark.parametrize("top", ["0", "-2"])
@pytest.mark.parametrize("rundir", [True, False], ids=["rundir", "legacy"])
def test_top_below_one_is_refused_before_anything_loads(
    top, rundir, tmp_path, capsys
):
    # Used to print the header over nothing (0) or every cell but the
    # last two (-2).  The run directory does not exist: the refusal
    # comes before it is looked for, and before a legacy report runs.
    output = tmp_path / "EXPERIMENTS.md"
    argv = [str(tmp_path / "runs")] if rundir else ["--output", str(output)]
    assert main(["report", *argv, "--top", top]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not output.exists()
    assert captured.err == f"error: --top must be at least 1 (got {top})\n"


@pytest.mark.parametrize("interval", ["0", "-1", "nan", "inf"])
def test_interval_not_positive_is_refused_before_anything_loads(
    interval, tmp_path, capsys
):
    # `--follow --interval -1` used to reach time.sleep(-1): a traceback.
    argv = ["top", str(tmp_path / "runs"), "--follow", "--interval", interval]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --interval must be a positive number of seconds "
        f"(got {float(interval):g})\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["sweep", "random-rs", "--count", "10"], ["fuzz", "--budget", "2"]],
    ids=lambda argv: argv[0],
)
def test_uncreatable_cache_dir_is_refused_before_anything_runs(
    argv, tmp_path, capsys, monkeypatch
):
    """The run directory is the one store a sweep or a campaign caches
    into: one nobody can create is refused before a cell runs."""
    monkeypatch.setattr(
        SweepRunner, "run", lambda *a, **k: pytest.fail("a sweep ran")
    )
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    root = blocker / "runs"
    assert main(argv + ["--run-dir", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: cannot create run directory under {root}: ")


@pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs a /dev/full device"
)
def test_a_merged_trace_that_fails_mid_write_is_one_error_line(
    tmp_path, capsys
):
    root = tmp_path / "runs"
    argv = ["sweep", "random-rs", "--count", "5", "--check",
            "--run-dir", str(root), "--jsonl", "/dev/full"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "oracle: 5/5 cells clean" in captured.out
    assert captured.err.splitlines()[-1] == (
        "error: cannot write merged trace to /dev/full: "
        "No space left on device"
    )
    # The leg finished before the trace was written: the run directory
    # is complete.
    (run,) = root.iterdir()
    loaded = RunDir.load(run)
    assert loaded.manifest["status"] == "complete"
    assert loaded.summary()["resume"]["executed"] == 5


# ---------------------------------------------------------------------------
# Goldens captured at the parent commit (the five private copies)
# ---------------------------------------------------------------------------

_SWEEP_KEYS = [
    "cache", "causal", "coverage", "kind", "latency_by_algorithm", "oracle",
    "resume", "run_id", "schema", "slo_verdicts", "slowest_cells", "space",
    "spans",
]
_MANIFEST_KEYS = [
    "cells", "config", "git", "injection", "kind", "legs", "name", "planned",
    "run_id", "schema", "slo", "status",
]
_CELL_LINE_KEYS = [
    "algorithm", "cached", "cell", "duration_s", "engine", "events", "key",
    "latency", "leg", "num_rounds", "t",
]


def _assert_layout(run_dir, run_id, summary_keys):
    assert run_dir.run_id == run_dir.path.name == run_id
    assert sorted(run_dir.summary()) == summary_keys
    assert sorted(run_dir.manifest) == _MANIFEST_KEYS
    assert run_dir.manifest["status"] == "complete"
    for line in run_dir.metrics_records():
        assert sorted(line) == _CELL_LINE_KEYS


class TestSameBytesOnDisk:
    def test_sweep_run_directory(self, tmp_path, capsys):
        root = str(tmp_path / "runs")
        argv = ["sweep", "oracle-sweep", "--check", "--run-dir", root]
        assert main(argv) == 0
        _assert_layout(_only_run(root), "0528f8299ac605b3", _SWEEP_KEYS)
        capsys.readouterr()
        assert main(argv) == 0
        assert "executed 0," in capsys.readouterr().out
        assert _only_run(root).manifest["legs"] == 2

    def test_fuzz_run_directory(self, tmp_path, capsys):
        root = str(tmp_path / "runs")
        argv = ["fuzz", "--budget", "24", "--seed", "0", "--run-dir", root]
        assert main(argv) == 0
        _assert_layout(
            _only_run(root), "f71f439e7d0a92cd", sorted(_SWEEP_KEYS + ["fuzz"])
        )
