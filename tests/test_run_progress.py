"""How far a campaign has got: ``repro report RUNDIR`` counts the planned
cells with a line in ``metrics.jsonl`` while the manifest status is not
``complete``.  Pinned against the ways a campaign leaves its directory
(killed mid-write, resumed, finished with a damaged summary), and a leg
keeps no second record of it (no thread, no stderr line, no extra file).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli.main import main
from repro.obs.artifacts import RunDir
from repro.obs.report import report_json, run_progress
from repro.runtime import SweepRunner
from tests.test_campaign_leg import _leg, _space

CELLS = [(f"cell-{i}", f"k{i}") for i in range(4)]
TORN = '{"t": "cell", "key": "k0", "ce'  # a line a killed leg cut short


def _open(tmp_path):
    return RunDir.open(
        tmp_path / "runs", kind="sweep", name="unit",
        identity={"unit": True}, cells=CELLS,
    )


def _record(run, *cells):
    run.record_cell(list(cells), cached=False)


class _Stop(Exception):
    pass


def _run_until(leg, space, cells):
    """Run ``space`` on ``leg``; raise :class:`_Stop` after ``cells`` cells."""
    seen = []

    def on_run(requests, results):
        leg.audit(requests, results)
        seen.append(len(requests))
        if sum(seen) >= cells:
            raise _Stop()

    SweepRunner(cache=leg.cache, on_run=on_run).run(space, keys=leg.keys)


class TestMetricsLog:
    def test_a_fresh_run_has_no_log_and_reads_empty(self, tmp_path):
        run = _open(tmp_path)
        assert not (run.path / "metrics.jsonl").exists()
        assert run.metrics_records() == []

    def test_blank_and_torn_lines_are_skipped(self, tmp_path):
        run = _open(tmp_path)
        _record(run, CELLS[0])
        run._end_leg()
        with open(run.path / "metrics.jsonl", "a", encoding="utf-8") as out:
            out.write("\n   \n")
            out.write(TORN)
        assert [r["key"] for r in run.metrics_records()] == ["k0"]

    def test_a_new_leg_starts_on_a_fresh_line(self, tmp_path):
        # A leg killed inside a write leaves a torn last line; the next
        # leg's first line must not be glued to it, or its cell is lost.
        run = _open(tmp_path)
        (run.path / "metrics.jsonl").write_text(TORN, encoding="utf-8")
        resumed = _open(tmp_path)
        _record(resumed, CELLS[1])
        resumed._end_leg()
        assert [r["key"] for r in resumed.metrics_records()] == ["k1"]
        assert run_progress(resumed) == {"done": 1, "planned": 4}

    def test_every_line_is_on_disk_before_the_leg_closes(self, tmp_path):
        run = _open(tmp_path)
        _record(run, CELLS[0])
        _record(run, CELLS[1])
        assert run._metrics is not None  # the leg still holds the file
        assert run_progress(RunDir.load(run.path)) == {"done": 2, "planned": 4}
        run._end_leg()


class TestReadSummary:
    @pytest.mark.parametrize("damage", ["cut", "missing", "empty"])
    def test_an_unreadable_summary_says_why(self, tmp_path, damage):
        run = _open(tmp_path)
        run.finalize({"coverage": {"planned": 4}})
        path = run.path / "summary.json"
        if damage == "cut":
            path.write_bytes(path.read_bytes()[:20])
        elif damage == "empty":
            path.write_bytes(b"")
        else:
            path.unlink()
        with pytest.raises(ValueError) as caught:
            run.read_summary()
        assert str(caught.value)
        if damage != "missing":
            assert str(caught.value).startswith("not JSON (")
        assert run.summary() is None

    def test_a_written_summary_reads_back(self, tmp_path):
        run = _open(tmp_path)
        run.finalize({"coverage": {"planned": 4}})
        summary = run.read_summary()
        assert summary == run.summary()
        assert summary["coverage"] == {"planned": 4}
        assert summary["run_id"] == run.run_id


class TestRunProgress:
    def test_the_count_grows_one_cell_at_a_time(self, tmp_path):
        run = _open(tmp_path)
        assert run_progress(run) == {"done": 0, "planned": 4}
        for done, cell in enumerate(CELLS, start=1):
            _record(run, cell)
            assert run_progress(run) == {"done": done, "planned": 4}
        run._end_leg()

    def test_one_run_serving_several_cells_counts_each(self, tmp_path):
        run = _open(tmp_path)
        _record(run, CELLS[0], CELLS[2], CELLS[3])
        run._end_leg()
        assert len(run.metrics_records()) == 3
        assert run_progress(run) == {"done": 3, "planned": 4}

    def test_a_cell_counts_by_key_not_by_name(self, tmp_path):
        # Two names for one run (an alias) share a key: the plan's
        # cells are told apart by key, as the manifest lists them.
        run = _open(tmp_path)
        _record(run, ("another-name", "k1"), ("cell-0", "not-planned"))
        run._end_leg()
        assert run_progress(run) == {"done": 1, "planned": 4}

    def test_an_interrupted_leg_reports_where_it_stopped(self, tmp_path):
        space = _space(4)
        with pytest.raises(_Stop):
            with _leg(tmp_path, space) as leg:
                _run_until(leg, space, 2)
        run = RunDir.load(leg.path)
        assert run.manifest["status"] == "interrupted"
        assert run_progress(run) == {"done": 2, "planned": 4}
        assert report_json(run)["progress"] == {"done": 2, "planned": 4}

    def test_the_count_spans_legs(self, tmp_path):
        space = _space(4)
        with pytest.raises(_Stop):
            with _leg(tmp_path, space) as first:
                _run_until(first, space, 1)
        with pytest.raises(_Stop):
            with _leg(tmp_path, space) as second:
                _run_until(second, space, 3)
        run = RunDir.load(second.path)
        assert run.manifest["legs"] == 2
        assert {r["leg"] for r in run.metrics_records()} == {1, 2}
        # The second leg served the first leg's cell again from the
        # store: its line counts the cell once.
        assert run_progress(run) == {"done": 3, "planned": 4}

    def test_a_complete_run_reports_no_progress(self, tmp_path):
        # The count is for unfinished runs: a complete run's record is
        # its summary, whatever its audit log holds.
        run = _open(tmp_path)
        _record(run, CELLS[0])
        run.finalize({"coverage": {"planned": 4}})
        document = report_json(run)
        assert document["in_progress"] is False
        assert document["progress"] is None
        assert document["summary"]["coverage"] == {"planned": 4}


class TestReportCommand:
    @pytest.mark.parametrize("status", ["running", "interrupted"])
    def test_an_unfinished_run_gets_no_dashboard(self, tmp_path, capsys, status):
        run = _open(tmp_path)
        _record(run, CELLS[1])
        run.manifest["status"] = status
        run._end_leg()
        assert main(["report", str(run.path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith(f"run {run.run_id} (sweep, status {status}")
        assert lines[-1] == "progress: 1/4 planned cells done"
        assert not any(line.startswith("coverage:") for line in lines)

    def test_a_summary_that_is_not_an_object_is_refused(self, tmp_path, capsys):
        run = _open(tmp_path)
        run.finalize({})
        path = run.path / "summary.json"
        path.write_text("[]\n", encoding="utf-8")
        for json_flag in ([], ["--json"]):
            assert main(["report", str(run.path), *json_flag]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            problem = "summary is not an object (got list)"
            assert captured.err == f"error: {path}: {problem}\n"

    def test_a_manifest_that_is_not_json_exits_2(self, tmp_path, capsys):
        run = _open(tmp_path)
        (run.path / "manifest.json").write_text('{"run_id": ', encoding="utf-8")
        assert main(["report", str(run.path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {run.path / 'manifest.json'}: invalid JSON")

    def test_report_reads_a_running_leg_without_disturbing_it(self, tmp_path, capsys):
        # `repro report` on a live run only reads: the leg's next line
        # still lands, and the count follows it.
        run = _open(tmp_path)
        _record(run, CELLS[0])
        assert main(["report", str(run.path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["progress"]["done"] == 1
        _record(run, CELLS[1])
        assert main(["report", str(run.path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["progress"]["done"] == 2
        run._end_leg()
        names = sorted(p.name for p in run.path.iterdir())
        assert names == ["manifest.json", "metrics.jsonl", "results"]


class TestNoSecondRecord:
    def test_a_leg_starts_no_thread(self, tmp_path):
        space = _space(2)
        before = set(threading.enumerate())
        with _leg(tmp_path, space) as leg:
            assert set(threading.enumerate()) == before
            SweepRunner(cache=leg.cache, on_run=leg.audit).run(space, keys=leg.keys)
            assert set(threading.enumerate()) == before
            leg.finalize(lambda run: {})
        assert set(threading.enumerate()) == before

    def test_a_sweep_writes_nothing_to_stderr(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert main(["sweep", "e10-lambda", "--run-dir", str(root)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "progress" not in captured.out
