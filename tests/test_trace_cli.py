"""CLI-level tests for ``repro trace`` / ``repro metrics`` — including
the shelled-out smoke path that ``make trace-smoke`` uses."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.workloads import floodset_rws_violation

REPO_ROOT = Path(__file__).resolve().parent.parent


def _shell(*args: str) -> subprocess.CompletedProcess:
    """Run a command with src/ importable, as make trace-smoke does."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    return subprocess.run(
        args, capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )


class TestTraceSmoke:
    """The trace-smoke pipeline: CLI export, then schema validation."""

    def test_trace_export_then_schema_check(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        exported = _shell(
            sys.executable,
            "-m",
            "repro",
            "trace",
            "floodset-rws-violation",
            "--jsonl",
            str(out),
        )
        assert exported.returncode == 0, exported.stderr
        assert "wrote" in exported.stdout

        checked = _shell(
            sys.executable, "scripts/check_trace.py", str(out)
        )
        assert checked.returncode == 0, checked.stderr
        assert "OK" in checked.stdout

    def test_exported_withheld_events_match_scenario(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        result = _shell(
            sys.executable,
            "-m",
            "repro",
            "trace",
            "floodset-rws-violation",
            "--jsonl",
            str(out),
        )
        assert result.returncode == 0, result.stderr
        events = [
            json.loads(line)
            for line in out.read_text().splitlines()
            if line.strip()
        ]
        withheld = {
            (e["peer"], e["pid"], e["round"])
            for e in events
            if e["kind"] == "msg_withheld"
        }
        declared = {
            (p.sender, p.recipient, p.round)
            for p in floodset_rws_violation(3).pending
        }
        assert withheld == declared

    def test_schema_check_rejects_corrupt_trace(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "teleport", "ts": 1.0}\n')
        result = _shell(sys.executable, "scripts/check_trace.py", str(bad))
        assert result.returncode == 1
        assert "unknown event kind" in result.stderr


class TestTraceCommand:
    def test_trace_to_stdout(self, capsys):
        assert main(["trace", "floodset-rws"]) == 0
        out = capsys.readouterr().out
        kinds = [json.loads(line)["kind"] for line in out.splitlines()]
        assert "msg_withheld" in kinds
        assert kinds[0] == "round_start"

    def test_trace_alias_resolves(self, capsys, tmp_path):
        out = tmp_path / "t.jsonl"
        assert main(["trace", "a1-rws-disagreement", "--jsonl", str(out)]) == 0
        assert out.exists()

    def test_unwritable_jsonl_is_refused_before_the_cell_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.cli import trace

        monkeypatch.setattr(
            trace, "execute_request", lambda *a, **k: pytest.fail("the cell ran")
        )
        path = tmp_path / "missing" / "x.jsonl"
        assert main(["trace", "floodset-rws", "--jsonl", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot write trace to {path}: No such file or directory"
        ]

    def test_trace_unknown_scenario_exits_2(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestMetricsCommand:
    def test_metrics_prints_per_round_counters(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "messages.sent.round.1 = 9" in out
        assert "messages.withheld.round.1 = 2" in out
        assert "decisions.round.2 = 2" in out
        assert "profile.rounds.execute.seconds" in out

    def test_metrics_unknown_scenario_exits_2(self, capsys):
        assert main(["metrics", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestCheckCommand:
    def test_clean_rs_scenario_passes(self, capsys):
        assert main(["check", "fopt-fast"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

    def test_documented_disagreement_is_reproduced(self, capsys):
        assert main(["check", "floodset-rws"]) == 0
        out = capsys.readouterr().out
        assert "consensus" in out
        assert "disagreement is reproduced" in out

    def test_all_builtin_scenarios_pass(self):
        from repro.cli.main import SCENARIOS

        for name in SCENARIOS:
            assert main(["check", name]) == 0, name

    def test_jsonl_mode_flags_seeded_violation(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["trace", "fopt-fast", "--jsonl", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        seeded = lines[:3] + [
            '{"kind": "suspect", "pid": 1, "peer": 0, "round": 1, "ts": 3.5}'
        ] + lines[3:]
        bad = tmp_path / "seeded.jsonl"
        bad.write_text("\n".join(seeded) + "\n")
        assert main(["check", "--jsonl", str(bad), "--model", "RS"]) == 1
        out = capsys.readouterr().out
        assert "event 3" in out
        assert "detector.accuracy" in out

    def test_jsonl_mode_passes_clean_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["trace", "fopt-fast", "--jsonl", str(trace)]) == 0
        assert main(["check", "--jsonl", str(trace), "--model", "RS"]) == 0

    def test_missing_arguments_exit_2(self, capsys):
        assert main(["check"]) == 2
        assert "scenario name or --jsonl" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["check", "nope"]) == 2

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        assert main(["check", "--jsonl", str(tmp_path / "missing.jsonl")]) == 2


#: Files that are not traces, and the schema problem each is refused with.
NOT_TRACES = {
    "teleport": ('{"kind":"teleport","ts":1.0}\n', "unknown event kind"),
    "bad-types": (
        '{"kind":"msg_sent","ts":"x","pid":"a"}\n',
        "missing field 'peer'",
    ),
    "empty": ("", "trace contains no events"),
}


class TestNotATrace:
    """Every command that loads a trace file refuses a file that is not
    one: exit 2, one ``error:`` line naming the file, nothing run."""

    @pytest.mark.parametrize("name", sorted(NOT_TRACES))
    @pytest.mark.parametrize("command", ["check", "replay", "diff", "causal"])
    def test_refused_with_one_error_line(self, capsys, tmp_path, name, command):
        content, problem = NOT_TRACES[name]
        bad = tmp_path / f"{name}.jsonl"
        bad.write_text(content, encoding="utf-8")
        good = tmp_path / "good.jsonl"
        assert main(["trace", "floodset-rws", "--jsonl", str(good)]) == 0
        capsys.readouterr()
        argv = {
            "check": ["check", "--jsonl", str(bad)],
            "replay": ["replay", "floodset-rws", str(bad)],
            "diff": ["diff", str(bad), str(good)],
            "causal": ["causal", str(bad)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"error: {bad}: ")
        assert problem in lines[0]


class TestReplayCommand:
    def test_rs_export_replays_byte_for_byte(self, capsys, tmp_path):
        trace = tmp_path / "rs.jsonl"
        assert main(["trace", "fopt-fast", "--jsonl", str(trace)]) == 0
        capsys.readouterr()
        assert main(["replay", "fopt-fast", str(trace)]) == 0
        assert "byte-for-byte" in capsys.readouterr().out

    def test_rws_export_replays_byte_for_byte(self, capsys, tmp_path):
        trace = tmp_path / "rws.jsonl"
        assert main(["trace", "floodset-rws", "--jsonl", str(trace)]) == 0
        capsys.readouterr()
        assert main(["replay", "floodset-rws", str(trace)]) == 0
        assert "byte-for-byte" in capsys.readouterr().out

    def test_wall_clock_export_still_matches_modulo_ts(self, capsys, tmp_path):
        """A trace whose stamps are not the logical counter's (edited,
        or written by another tool) still replays, modulo ``ts``."""
        trace = tmp_path / "wall.jsonl"
        assert main(["trace", "floodset-rws", "--jsonl", str(trace)]) == 0
        capsys.readouterr()
        lines = []
        for i, line in enumerate(trace.read_text(encoding="utf-8").splitlines()):
            data = json.loads(line)
            data["ts"] = 0.001 * (i + 1)
            lines.append(json.dumps(data))
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "floodset-rws", str(trace)]) == 0
        assert "modulo timestamps" in capsys.readouterr().out

    def test_wrong_scenario_diverges_nonzero(self, capsys, tmp_path):
        trace = tmp_path / "rws.jsonl"
        assert main(["trace", "floodset-rws", "--jsonl", str(trace)]) == 0
        capsys.readouterr()
        assert main(["replay", "a1-rws", str(trace)]) == 1
        assert "divergence" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(
            ["replay", "fopt-fast", str(tmp_path / "missing.jsonl")]
        ) == 2


class TestDiffCommand:
    def _export(self, scenario, path):
        assert main(["trace", scenario, "--jsonl", str(path)]) == 0

    def test_identical_traces(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        self._export("floodset-rws", a)
        capsys.readouterr()
        assert main(["diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_traces_diverge_nonzero(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._export("fopt-fast", a)
        self._export("floodset-rws", b)
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 1
        assert "diverge at position" in capsys.readouterr().out

    def test_pid_lane_comparison(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        self._export("floodset-rws", a)
        capsys.readouterr()
        assert main(["diff", str(a), str(a), "--pid", "1"]) == 0
        assert "indistinguishable" in capsys.readouterr().out

    @pytest.mark.parametrize("pid", ["7", "-1"])
    def test_pid_in_neither_trace_is_refused(self, pid, capsys, tmp_path):
        # Used to print "p7's local views are indistinguishable", exit 0.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._export("floodset-rws", a)
        self._export("a1-rws", b)
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--pid", pid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no event in either trace carries p{pid} (as pid or peer)\n"
        )
        # The highest pid the n = 3 traces carry still gets a verdict.
        assert main(["diff", str(a), str(b), "--pid", "2"]) in (0, 1)
        assert capsys.readouterr().out.startswith("p2")

    def test_sdd_quadruple_demo(self, capsys):
        assert main(["diff", "--sdd", "suspicion"]) == 0
        out = capsys.readouterr().out
        assert "r0 ~ r0'" in out
        assert "r1 ~ r1'" in out
        assert "contradiction" in out

    def test_sdd_unknown_candidate_exits_2(self, capsys):
        assert main(["diff", "--sdd", "nope"]) == 2
        assert "unknown SDD candidate" in capsys.readouterr().err

    def test_missing_operands_exit_2(self, capsys):
        assert main(["diff"]) == 2


class TestCheckTraceScriptOrdering:
    """scripts/check_trace.py now layers ordering atop the schema."""

    def test_ordering_violation_detected(self, tmp_path):
        bad = tmp_path / "bad_order.jsonl"
        bad.write_text(
            '{"kind": "round_start", "round": 1, "ts": 1.0, "value": [0, 1]}\n'
            '{"kind": "round_start", "round": 3, "ts": 2.0, "value": [0, 1]}\n'
        )
        result = _shell(sys.executable, "scripts/check_trace.py", str(bad))
        assert result.returncode == 1
        assert "increase by exactly 1" in result.stderr

    def test_schema_only_skips_ordering(self, tmp_path):
        bad = tmp_path / "bad_order.jsonl"
        bad.write_text(
            '{"kind": "round_start", "round": 1, "ts": 1.0, "value": [0, 1]}\n'
            '{"kind": "round_start", "round": 3, "ts": 2.0, "value": [0, 1]}\n'
        )
        result = _shell(
            sys.executable,
            "scripts/check_trace.py",
            "--schema-only",
            str(bad),
        )
        assert result.returncode == 0
        assert "OK (schema)" in result.stdout


class TestShowErrorPath:
    def test_show_unknown_scenario_is_clean_error(self, capsys):
        """No traceback, nonzero exit, helpful message."""
        assert main(["show", "definitely-not-a-scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "choose from" in err

    def test_show_accepts_alias(self, capsys):
        assert main(["show", "floodset-rws-violation"]) == 0
        assert "round" in capsys.readouterr().out
