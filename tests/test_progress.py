"""Tests for campaign progress heartbeats and ``repro top``.

Covers the pieces the smoke targets exercise only incidentally: the
reporter's thread lifecycle and its interrupted status, heartbeat
math, a torn heartbeat left by a killed leg, and the ``repro top
--follow`` polling loop (which must terminate on its own when the
campaign completes or is interrupted).
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.cli.main import main
from repro.obs.artifacts import RunDir
from repro.obs.progress import ProgressReporter, latest_progress
from repro.obs.report import render_top


def read_records(path):
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


class TestHeartbeat:
    def test_counters_and_verdicts(self, tmp_path):
        reporter = ProgressReporter(total=4, stream=None)
        reporter.advance()
        reporter.advance(cached=True)
        reporter.advance()
        record = reporter.heartbeat()
        assert record["done"] == 3
        assert record["total"] == 4
        assert record["cached"] == 1
        assert "verdicts" not in record
        assert record["eta_s"] is not None
        # A heartbeat written while the reporter still kept a verdict
        # tally renders with it.
        (tmp_path / "progress.jsonl").write_text(
            json.dumps({**record, "verdicts": {"ok": 2, "fail": 1}}) + "\n"
        )
        run = RunDir(path=tmp_path, manifest={"run_id": "r", "name": "old"})
        assert render_top(run).endswith(" fail=1 ok=2")

    def test_zero_rate_has_no_eta(self):
        record = ProgressReporter(total=4, stream=None).heartbeat()
        assert record["done"] == 0
        assert record["eta_s"] is None

    def test_emit_writes_stream_and_file(self, tmp_path):
        stream = io.StringIO()
        path = tmp_path / "progress.jsonl"
        reporter = ProgressReporter(
            total=2, path=path, stream=stream, label="unit"
        )
        reporter.advance()
        reporter.emit()
        assert "[unit] 1/2" in stream.getvalue()
        records = read_records(path)
        assert len(records) == 1
        assert records[0]["t"] == "progress"
        assert records[0]["status"] == "running"

    def test_unwritable_path_never_raises(self, tmp_path):
        reporter = ProgressReporter(
            total=1, path=tmp_path / "no-such-dir" / "p.jsonl", stream=None
        )
        reporter.emit()  # swallowed: progress must never kill a campaign


class TestLifecycle:
    def test_stop_emits_final_heartbeat(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        reporter = ProgressReporter(
            total=1, path=path, stream=None, interval_s=60.0
        ).start()
        reporter.advance()
        record = reporter.stop()
        assert record["status"] == "complete"
        assert read_records(path)[-1]["status"] == "complete"

    def test_heartbeat_thread_emits_on_interval(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        reporter = ProgressReporter(
            total=10, path=path, stream=None, interval_s=0.02
        ).start()
        deadline = time.monotonic() + 2.0
        while (
            len(read_records(path)) < 2 and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        reporter.stop()
        assert len(read_records(path)) >= 3  # >= 2 interval + 1 final

    def test_stop_marks_interruption(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        reporter = ProgressReporter(
            total=3, path=path, stream=None, interval_s=60.0
        ).start()
        reporter.advance()
        reporter.stop(status="interrupted")
        final = read_records(path)[-1]
        assert final["status"] == "interrupted"
        assert final["done"] == 1

    def test_start_is_idempotent(self):
        reporter = ProgressReporter(total=1, stream=None, interval_s=60.0)
        assert reporter.start() is reporter
        thread = reporter._thread
        reporter.start()
        assert reporter._thread is thread
        reporter.stop()


class TestLatestProgress:
    def test_picks_last_progress_record(self):
        records = [
            {"t": "progress", "done": 1},
            {"t": "cell", "name": "x"},
            {"t": "progress", "done": 2},
        ]
        assert latest_progress(records)["done"] == 2

    def test_none_without_progress_records(self):
        assert latest_progress([]) is None
        assert latest_progress([{"t": "cell"}]) is None


@pytest.fixture()
def finished_run(tmp_path):
    """A minimal completed run directory with two heartbeats."""
    run = RunDir.open(
        tmp_path / "runs",
        kind="sweep",
        name="unit",
        identity={"unit": True},
        cells=[("cell-0", "k0")],
    )
    reporter = ProgressReporter(
        total=1, path=run.progress_path, stream=None, interval_s=60.0
    )
    reporter.emit()
    reporter.advance()
    reporter.emit(status="complete")
    run.finalize({"schema": 1})
    return run


class TestTopCommand:
    def test_single_frame(self, finished_run, capsys):
        assert main(["top", str(finished_run.path)]) == 0
        out = capsys.readouterr().out
        assert "1/1" in out

    def test_follow_stops_when_run_is_complete(self, finished_run, capsys):
        # finalize() flipped the manifest out of "running", so the
        # follow loop must exit after the first frame on its own.
        assert main(
            ["top", str(finished_run.path), "--follow", "--interval", "0.01"]
        ) == 0
        capsys.readouterr()

    def test_follow_stops_on_final_heartbeat(self, tmp_path, capsys):
        # Manifest still says "running" (no finalize), but the last
        # heartbeat says complete: --follow must still terminate.
        run = RunDir.open(
            tmp_path / "runs",
            kind="sweep",
            name="unit",
            identity={"unit": True},
            cells=[("cell-0", "k0")],
        )
        reporter = ProgressReporter(
            total=1, path=run.progress_path, stream=None, interval_s=60.0
        )
        reporter.advance()
        reporter.emit(status="complete")
        assert run.manifest.get("status") == "running"
        assert main(
            ["top", str(run.path), "--follow", "--interval", "0.01"]
        ) == 0
        capsys.readouterr()

    def test_follow_returns_after_a_torn_heartbeat(self, tmp_path, capsys):
        """A leg killed inside a heartbeat write leaves a torn last line;
        the next leg's first heartbeat starts on a fresh line, so its
        final ``complete`` parses and ``--follow`` sees it."""
        run = RunDir.open(
            tmp_path / "runs",
            kind="sweep",
            name="unit",
            identity={"unit": True},
            cells=[("cell-0", "k0")],
        )
        run.progress_path.write_text(
            '{"t": "progress", "done": 3, "sta', encoding="utf-8"
        )
        ProgressReporter(
            total=1, path=run.progress_path, stream=None, interval_s=60.0
        ).stop()
        assert run.manifest.get("status") == "running"
        assert latest_progress(run.progress_records())["status"] == "complete"
        follow = threading.Thread(
            target=main,
            args=(["top", str(run.path), "--follow", "--interval", "0.01"],),
            daemon=True,
        )
        follow.start()
        follow.join(timeout=10)
        assert not follow.is_alive(), "repro top --follow is still polling"
        capsys.readouterr()

    def test_follow_polls_until_completion(
        self, tmp_path, capsys, monkeypatch
    ):
        # A genuinely in-flight run: complete it from a helper thread
        # while --follow is polling; the loop must pick the transition
        # up and return rather than spin forever.
        from types import SimpleNamespace

        from repro.cli import report as report_cli

        run = RunDir.open(
            tmp_path / "runs",
            kind="sweep",
            name="unit",
            identity={"unit": True},
            cells=[("cell-0", "k0")],
        )
        reporter = ProgressReporter(
            total=1, path=run.progress_path, stream=None, interval_s=60.0
        )
        reporter.emit()  # status: running

        finished = threading.Event()

        def finish():
            time.sleep(0.1)
            reporter.advance()
            reporter.emit(status="complete")
            finished.set()

        # The follow loop's sleep fails the test instead of polling on
        # once the helper died without completing the run, or after 30 s.
        deadline = time.monotonic() + 30.0

        def bounded_sleep(seconds):
            if not worker.is_alive() and not finished.is_set():
                raise AssertionError("the helper thread died mid-run")
            if time.monotonic() > deadline:
                raise AssertionError("repro top --follow is still polling")
            time.sleep(seconds)

        monkeypatch.setattr(
            report_cli, "time", SimpleNamespace(sleep=bounded_sleep)
        )
        worker = threading.Thread(target=finish)
        worker.start()
        try:
            assert main(
                ["top", str(run.path), "--follow", "--interval", "0.02"]
            ) == 0
        finally:
            worker.join()
        frames = capsys.readouterr().out
        assert "0/1" in frames and "1/1" in frames

    def test_missing_rundir(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope")]) == 2
        capsys.readouterr()
