"""``scripts/line_audit.py`` cannot hang: a command past its time is
killed with every process it started, and the audit stops with
``TIMEOUT <command>`` and a non-zero status.  And its ``KEEP`` table
names only functions that exist, which needs no command run."""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Starts a grandchild that would outlive a killed parent, records its
#: pid, and sleeps.
SLEEPER = (
    "import subprocess, sys, time\n"
    "child = subprocess.Popen([sys.executable, '-c', "
    "'import time; time.sleep(120)'])\n"
    "open(sys.argv[1], 'w').write(str(child.pid))\n"
    "time.sleep(120)\n"
)


def _line_audit():
    spec = importlib.util.spec_from_file_location(
        "_line_audit_script", ROOT / "scripts" / "line_audit.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    # Killed but not yet reaped by whoever inherited it.
    status = Path(f"/proc/{pid}/status")
    return not status.exists() or "\nState:\tZ" in status.read_text()


def test_a_command_past_its_time_is_killed_with_its_group(
    tmp_path, monkeypatch, capsys
):
    audit = _line_audit()
    monkeypatch.setattr(audit, "COMMAND_TIMEOUT_S", 2.0)
    pid_file = tmp_path / "grandchild.pid"
    started = time.perf_counter()
    with pytest.raises(SystemExit) as exit_:
        audit.run(
            str(tmp_path), str(tmp_path / "records"),
            [sys.executable, "-c", SLEEPER, str(pid_file)], "repro sleeper",
        )
    assert exit_.value.code == 1
    assert time.perf_counter() - started < 30
    assert capsys.readouterr().out == "TIMEOUT repro sleeper\n"
    grandchild = int(pid_file.read_text())
    deadline = time.monotonic() + 10
    while not _gone(grandchild) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _gone(grandchild)


def test_a_command_in_time_reports_its_exit(tmp_path, capsys):
    audit = _line_audit()
    audit.run(
        str(tmp_path), str(tmp_path / "records"),
        [sys.executable, "-c", "raise SystemExit(3)"], "repro quick",
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("  exit 3 ")
    assert captured.err.rstrip().endswith("repro quick")


def test_every_kept_function_exists():
    # An entry for a deleted or renamed function keeps nothing; the full
    # audit exits 1 on it, this finds it without running a command.
    audit = _line_audit()
    defined = {
        f"{rel}:{name}" for rel, name, _, _ in audit.functions(str(ROOT / "src"))
    }
    assert sorted(set(audit.KEEP) - defined) == []
