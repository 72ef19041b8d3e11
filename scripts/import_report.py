#!/usr/bin/env python
"""What each ledger command imports before it does any work.

Usage::

    python scripts/import_report.py            # = make startup-report
    python scripts/import_report.py --json

Runs the four ``ledger/run.py`` commands (at ``--count 8``: the import
set does not depend on the space's size) once each in a fresh
interpreter whose ``SourceFileLoader`` is wrapped with a timer, and
prints per command: modules the command added to ``sys.modules``, how
many of them are ``repro.*``, the source lines those hold, the summed
import *self* time (a module's execution minus the imports nested in
it) with the ten largest, and the share of it spent in ``get_code`` —
reading and, without a ``.pyc``, compiling the source.

The counts repeat exactly and are what a start-up change is attributed
with; the times are one sample on whatever host this is.  The wrapper
sees every source module however it was reached, which ``python -X
importtime`` does not: it logs ``import`` statements only, and a module
loaded by ``importlib.import_module`` — every ``repro._lazy`` re-export
— is missing from its output.
"""

from __future__ import annotations

import json
import os
import sys

# Nothing else up here: the measuring child runs this file too, and what
# it imports before the command starts is missing from the command's set.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TOP = 10

_SWEEP = ["sweep", "random-rs", "--count", "8", "--seed", "7", "--check",
          "--jobs", "1", "--engine"]


def commands(work: str) -> list[tuple[str, list[str], bool]]:
    """``(ledger workload, argv, populate first)`` in ledger order."""
    cold, warm = os.path.join(work, "cold"), os.path.join(work, "warm")
    return [
        ("sweep-rounds-cold", _SWEEP + ["rounds"], False),
        ("campaign-vector-cold",
         _SWEEP + ["vector", "--run-dir", cold,
                   "--jsonl", os.path.join(work, "t.jsonl")],
         False),
        ("campaign-vector-warm", _SWEEP + ["vector", "--run-dir", warm], True),
        ("mc-n4t2",
         ["mc", "agreement", "--algorithm", "floodset", "--n", "4", "--t", "2"],
         False),
    ]


def measure(argv: list[str]) -> dict:
    """Run ``repro`` ``argv`` in this interpreter under the timing loader."""
    import contextlib
    import io
    from importlib.machinery import SourceFileLoader
    from time import perf_counter

    self_s: dict[str, float] = {}
    nested = [0.0]  # one slot per module executing now, outermost first
    get_code_s = 0.0
    exec_module, get_code = SourceFileLoader.exec_module, SourceFileLoader.get_code

    def timed_exec(loader, module):
        nested.append(0.0)
        started = perf_counter()
        try:
            exec_module(loader, module)
        finally:
            total = perf_counter() - started
            self_s[module.__name__] = total - nested.pop()
            nested[-1] += total

    def timed_get_code(loader, fullname):
        nonlocal get_code_s
        started = perf_counter()
        try:
            return get_code(loader, fullname)
        finally:
            get_code_s += perf_counter() - started

    before = set(sys.modules)
    SourceFileLoader.exec_module = timed_exec
    SourceFileLoader.get_code = timed_get_code
    try:
        from repro.cli.main import main

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        SourceFileLoader.exec_module = exec_module
        SourceFileLoader.get_code = get_code
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}")

    loaded = sorted(set(sys.modules) - before)
    ours = [name for name in loaded if name.split(".")[0] == "repro"]
    lines = 0
    for name in ours:
        with open(sys.modules[name].__file__, "rb") as handle:
            lines += sum(1 for _ in handle)
    return {
        "modules": len(loaded),
        "repro_modules": len(ours),
        "repro_lines": lines,
        "import_self_s": sum(self_s.values()),
        "get_code_s": get_code_s,
        "top": sorted(self_s.items(), key=lambda item: -item[1])[:TOP],
        "loaded": loaded,
    }


def fresh(argv: list[str]) -> dict:
    """:func:`measure` ``argv`` in a fresh interpreter."""
    import subprocess

    inherited = os.environ.get("PYTHONPATH")
    path = f"{SRC}{os.pathsep}{inherited}" if inherited else SRC
    done = subprocess.run(
        [sys.executable, __file__, "--measure", *argv],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0"},
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(done.stderr.strip() or f"child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main(args: list[str]) -> int:
    if args[:1] == ["--measure"]:
        sys.__stdout__.write(json.dumps(measure(args[1:])) + "\n")
        return 0
    if args not in ([], ["--json"]):
        print(__doc__, file=sys.stderr)
        return 2
    import tempfile

    report = {}
    with tempfile.TemporaryDirectory(prefix="import-report-") as work:
        for name, argv, populate in commands(work):
            if populate:
                fresh(argv)
            report[name] = fresh(argv)
    if args:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"{'command':22s} {'modules':>7s} {'repro.*':>7s} {'repro lines':>11s} "
          f"{'import self s':>13s} {'get_code s (share)':>19s}")
    for name, row in report.items():
        share = row["get_code_s"] / row["import_self_s"]
        print(f"{name:22s} {row['modules']:7d} {row['repro_modules']:7d} "
              f"{row['repro_lines']:11d} {row['import_self_s']:13.4f} "
              f"{row['get_code_s']:12.4f} ({share:4.0%})")
    for name, row in report.items():
        print(f"\n{name}: top {TOP} by import self time")
        for module, seconds in row["top"]:
            print(f"  {seconds:8.4f}  {module}")
    if sys.dont_write_bytecode:
        print("\n(bytecode writing is off in this environment: a checkout "
              "without __pycache__ compiles every module on every run)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
