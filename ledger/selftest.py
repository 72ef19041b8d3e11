"""``python ledger/selftest.py``: the benchmark checks itself, in < 30 s.

Shrunk workloads (50 cells, ``mc`` at n=3) through the real code paths:

1. every workload and metric ``BENCHMARK.json`` names is reported, with
   the declared unit and a well-formed name — and nothing else is;
2. every ``module:attr`` in the tracer's table resolves, so a rename in
   ``src/`` fails here instead of silently dropping a layer;
3. in a traced run no span's children outlast it (self times >= 0);
4. a wrong reference digest fails every operation and the exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SMALL = run.Sizes(cells=50, mc_n=3, mc_t=1)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def driver_run(argv: list[str]) -> tuple[int, dict]:
    """``run.main`` in driver mode on the small sizes: (exit code, result)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(argv, sizes=SMALL)
    return code, json.loads(stdout.getvalue().splitlines()[-1])


def check_names(spec: dict) -> None:
    ledger = run.measure(list(run.WORKLOADS), 5, SMALL, reps=1, seconds=None, trace=True)
    declared = [w["name"] for w in spec["workloads"]]
    check(declared == list(ledger["workloads"]) == list(run.WORKLOADS),
          f"workloads differ: BENCHMARK.json {declared}, ledger {list(ledger['workloads'])}")
    for workload, entry in ledger["workloads"].items():
        check(entry["failed"] == 0, f"{workload}: {entry['problems']}")
        for group in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in entry[group].items()}
            check(want == got, f"{workload} {group}: declared/reported differ: "
                               f"{sorted(set(want.items()) ^ set(got.items()))}")
            for name in got:
                check(NAME.fullmatch(name) is not None, f"malformed metric name {name!r}")
        for m in entry["end_to_end"].values():
            check(m["value"] != 0, f"{workload}: an end-to-end metric reads 0")
    print(f"ok: {len(declared)} workloads x ({len(spec['end_to_end'])} end-to-end + "
          f"{len(spec['per_layer'])} per-layer) metrics reported as declared")


def check_sites(tracer) -> None:
    for site in tracer.SITES:
        try:
            tracer.resolve(site)
        except (ImportError, AttributeError) as exc:
            check(False, f"tracer site {site} does not resolve: {exc}")
    print(f"ok: {len(tracer.SITES)} tracer binding sites resolve")


def check_spans() -> None:
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work:
        out = Path(work) / "trace.json"
        argv = ["sweep", "random-rs", "--count", "50", "--seed", "5", "--check",
                "--engine", "vector", "--run-dir", f"{work}/runs", "--jsonl", f"{work}/t.jsonl"]
        done = subprocess.run(
            [sys.executable, str(run.TRACE_PY), str(out), *argv], cwd=run.ROOT,
            env=run.child_env(), capture_output=True, text=True)
        check(done.returncode == 0, f"trace.py failed: {done.stderr[-500:]}")
        spans = json.loads(out.read_text(encoding="utf-8"))["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        check(end >= start, f"span {name} ends before it starts")
        if parent >= 0:
            check(spans[parent][1] <= start and end <= spans[parent][2],
                  f"span {name} is not inside its parent {spans[parent][0]}")
            covered[parent] += end - start
    for (name, start, end, _), child_s in zip(spans, covered):
        check(child_s <= end - start + 1e-9, f"children of {name} outlast it")
    print(f"ok: {len(spans)} spans nest; no child outlasts its parent")


def check_wrong_digest() -> None:
    real = run.reference_digest
    run.reference_digest = lambda seed, cells: "0" * 64
    try:
        code, result = driver_run(["--workload", "campaign-vector-cold", "--seed", "5",
                                   "--seconds", "1", "--trace", "0"])
    finally:
        run.reference_digest = real
    check(code != 0, "a wrong reference digest must fail the exit code")
    check(result["correct"] is False and result["failed"] == result["attempted"] > 0,
          f"a wrong reference digest must fail every operation: {result}")
    check(result["metrics"]["pass_share"]["value"] == 0, "pass_share must read 0")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"result keys: {sorted(result)}")
    print("ok: wrong reference digest -> pass_share 0, non-zero exit")


def main() -> int:
    spec = run.benchmark_spec()
    sys.path.insert(0, str(run.SRC))
    check_sites(run.load_tracer())
    check_names(spec)
    check_spans()
    check_wrong_digest()
    code, result = driver_run(["--workload", "mc-n4t2", "--seconds", "1", "--trace", "1"])
    check(code == 0 and result["correct"], f"traced mc run failed: {result}")
    check(set(result["metrics"]) == {m["name"] for m in spec["per_layer"]},
          "--trace 1 must report exactly the per-layer metrics")
    print("ok: --trace 1 reports exactly the per-layer metrics")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
