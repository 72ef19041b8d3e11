"""The repo's end-to-end benchmark (see ``ledger/README.md``).

Three ways in, one measuring loop behind them:

* ``python ledger/run.py [--workload NAME] [--seed N] [--reps N] [--out FILE]``
  — the full ledger: every workload, ``--reps`` fresh-process
  repetitions interleaved round-robin, one traced run each, every
  metric printed by name with its unit.
* ``python ledger/run.py --workload NAME --seed N --seconds T --trace 0|1``
  — one workload measured for ``T`` seconds; the last stdout line is the
  ``{"correct", "attempted", "failed", "metrics"}`` object
  ``BENCHMARK.json`` describes (end-to-end metrics with ``--trace 0``,
  per-layer metrics with ``--trace 1``).
* ``python ledger/run.py --compare A.json B.json`` — judge two ``--out``
  files against the bounds in ``BENCHMARK.json``.

Every repetition is a fresh ``python -m repro ...`` process (closed
loop, one client, ``--jobs 1``) whose outputs are checked; exits
non-zero when any operation failed.

Timings are reported in *reference-host seconds*: each child's wall and
CPU time is scaled by how fast a fixed calibration loop ran just before
and after it (see :class:`Host`), because on a shared box identical
runs differ by tens of percent with no steal time to show for it.  The
raw medians are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_PY = Path(__file__).resolve().parent / "trace.py"
#: Run dirs, merged traces and children's temp files live here: inside
#: the checkout (the benchmark may write nowhere else) and git-ignored.
WORK_ROOT = ROOT / ".ledger_work"

WORKLOADS = (
    "sweep-rounds-cold",
    "campaign-vector-cold",
    "campaign-vector-warm",
    "mc-n4t2",
)
DEFAULT_REPS = 7
MIN_REPS = 5
#: With ``--seconds`` the repetition count follows the clock, but a
#: median needs at least this many timed runs.
MIN_TIMED_RUNS = 2
MB = 1024 * 1024
#: What ``calibrate()`` reads on the seed-commit box when it is quiet:
#: the "reference host" all reported seconds are scaled to.
REFERENCE_CALIB_S = 0.062


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; only ``ledger/selftest.py`` shrinks them."""

    cells: int = 2000
    mc_n: int = 4
    mc_t: int = 2


@dataclass
class Run:
    """One child process, measured and checked."""

    wall_s: float  # raw; multiply by ``speed`` for reference-host seconds
    cpu_s: float
    speed: float
    peak_rss_mb: float
    artifact_mb: float
    problems: list[str]
    results_bytes: int = 0
    jsonl_bytes: int = 0
    trace: dict | None = None


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def calibrate() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now.

    Dict, list, tuple, string and JSON traffic — the mix the measured
    commands are made of — so host contention slows both alike.
    """
    started = perf_counter()
    table: dict[str, list] = {}
    for i in range(200_000):
        key = f"k{i % 997}"
        row = table.setdefault(key, [])
        row.append((i, key))
        if len(row) > 8:
            del row[:4]
    json.dumps(table)
    return perf_counter() - started


class Host:
    """The host's speed, probed between child processes.

    A probe is the mean of three calibration passes (~0.2 s).  A child's
    speed factor is ``REFERENCE_CALIB_S`` over the mean of the probes
    before and after it; its timings times that factor are what the
    child would have taken on the reference host.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._probed_at = float("-inf")

    def probe(self, max_age_s: float = 0.0) -> float:
        """A probe no older than ``max_age_s``: children run back to back,
        so one's *after* probe doubles as the next one's *before*."""
        if perf_counter() - self._probed_at > max_age_s:
            self.probes.append(statistics.mean(calibrate() for _ in range(3)))
            self._probed_at = perf_counter()
        return self.probes[-1]

    @staticmethod
    def speed(probes: list[float]) -> float:
        return REFERENCE_CALIB_S / statistics.mean(probes)


def child_env(**extra: str) -> dict[str, str]:
    inherited = os.environ.get("PYTHONPATH")
    path = f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    return {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": "0", **extra}


def ask_python(*args: str) -> str:
    """Stdout of a helper interpreter that can import ``repro``.

    Whatever needs numpy or a whole sweep in memory runs out of process:
    a child's ``ru_maxrss`` never reads lower than its spawner's peak.
    """
    done = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def reference_digest(seed: int, cells: int) -> str:
    """sha256 of the merged trace by the second route (``reference.py``)."""
    return ask_python(str(TRACE_PY.with_name("reference.py")), str(seed), str(cells))


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_bytes(path: Path) -> int:
    """Bytes in the files under ``path`` (0 when it does not exist yet)."""
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def spawn(command: list[str], env: dict[str, str], stdout_path: Path):
    """Run ``command`` to completion: (wall s, exit code, rusage)."""
    with open(stdout_path, "wb") as stdout:
        started = perf_counter()
        child = subprocess.Popen(
            command, stdout=stdout, stderr=subprocess.DEVNULL, env=env, cwd=ROOT
        )
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage


class Session:
    """One workload's set-up, repetitions, traced runs and samples."""

    def __init__(self, name: str, seed: int, sizes: Sizes, work: Path,
                 host: Host) -> None:
        self.name, self.seed, self.sizes, self.host = name, seed, sizes, host
        self.dir = work / name
        self.dir.mkdir(parents=True)
        self.env = child_env(TMPDIR=str(work))
        self.is_mc = name == "mc-n4t2"
        self.is_campaign = name.startswith("campaign-")
        self.is_warm = name == "campaign-vector-warm"
        self.ops = 1 if self.is_mc else sizes.cells
        self.reference: str | None = None
        self.setup_s = self.setup_speed = 0.0
        self.setup_problems: list[str] = []
        self.runs: list[Run] = []
        self.traced: list[Run] = []
        self._launches = 0

    # -- the command ---------------------------------------------------------

    def argv(self, run_dir: Path | None, jsonl: Path | None) -> list[str]:
        if self.is_mc:
            return [
                "mc", "agreement", "--algorithm", "floodset",
                "--n", str(self.sizes.mc_n), "--t", str(self.sizes.mc_t),
            ]
        argv = [
            "sweep", "random-rs", "--count", str(self.sizes.cells),
            "--seed", str(self.seed), "--check", "--jobs", "1",
            "--engine", "vector" if self.is_campaign else "rounds",
        ]
        if run_dir is not None:
            argv += ["--run-dir", str(run_dir)]
        if jsonl is not None:
            argv += ["--jsonl", str(jsonl)]
        return argv

    def launch(self, *, populate: bool = False, replay: bool = False,
               trace: bool = False) -> Run:
        """One fresh process of the workload's command, outputs checked.

        ``populate`` (warm set-up) runs the command on the still-empty
        warm run dir; ``replay`` (warm set-up) adds ``--jsonl`` so the
        cache-served trace can be compared with the reference.
        """
        self._launches += 1
        tag = self.dir / f"run-{self._launches}"
        warm_dir = self.dir / "warm"
        run_dir = (warm_dir if self.is_warm else tag) if self.is_campaign else None
        wants_jsonl = self.is_campaign and (replay or not self.is_warm)
        jsonl = tag.with_suffix(".jsonl") if wants_jsonl else None
        stdout_path, trace_path = tag.with_suffix(".out"), tag.with_suffix(".trace")
        argv = self.argv(run_dir, jsonl)
        prefix = [str(TRACE_PY), str(trace_path)] if trace else ["-m", "repro"]

        before = tree_bytes(run_dir) if run_dir is not None else 0
        probes = [self.host.probe(max_age_s=1.0)]
        wall, exit_code, usage = spawn(
            [sys.executable, *prefix, *argv], self.env, stdout_path
        )
        probes.append(self.host.probe())
        stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        document = None
        if trace and exit_code == 0:
            # trace.py's own stdout is its reporting time; the command's
            # stdout and exit code are in the trace file.
            wall -= json.loads(stdout.splitlines()[-1])["report_s"]
            document = json.loads(trace_path.read_text(encoding="utf-8"))
            stdout, exit_code = document["stdout"], document["exit_code"]

        warm = self.is_warm and not populate
        jsonl_bytes = jsonl.stat().st_size if jsonl is not None and jsonl.exists() else 0
        grown = tree_bytes(run_dir) - before if run_dir is not None else 0
        run = Run(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            speed=Host.speed(probes),
            peak_rss_mb=usage.ru_maxrss / 1024,
            artifact_mb=(len(stdout.encode("utf-8")) + grown + jsonl_bytes) / MB,
            problems=self.check(exit_code, stdout, run_dir, jsonl, warm),
            # Only a traced run reports the cache's bytes per cell.
            results_bytes=sum(
                tree_bytes(d) for d in (run_dir.glob("*/results") if trace and run_dir else ())
            ),
            jsonl_bytes=jsonl_bytes,
            trace=document,
        )
        for leftover in (stdout_path, trace_path, jsonl):
            if leftover is not None:
                leftover.unlink(missing_ok=True)
        if run_dir is not None and not self.is_warm:
            shutil.rmtree(run_dir, ignore_errors=True)
        return run

    def check(self, exit_code: int, stdout: str, run_dir: Path | None,
              jsonl: Path | None, warm: bool) -> list[str]:
        """Everything wrong with one process's outputs (empty = correct)."""
        from repro.obs.report import summary_problems

        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        if self.is_mc:
            if "HOLDS(exhaustive)" not in stdout:
                problems.append("verdict is not HOLDS(exhaustive)")
            return problems
        n = self.sizes.cells
        if f"oracle: {n}/{n} cells clean" not in stdout:
            problems.append("oracle not clean on every cell")
        expected = f"executed 0, cached {n}" if warm else f"executed {n}, cached 0"
        if expected not in stdout:
            problems.append(f"stdout lacks {expected!r}")
        if jsonl is not None and (
            not jsonl.exists() or file_digest(jsonl) != self.reference
        ):
            problems.append("merged trace differs from the rounds-engine reference")
        if run_dir is not None:
            summaries = list(run_dir.glob("*/summary.json"))
            if len(summaries) != 1:
                return problems + [f"{len(summaries)} summary.json under the run dir"]
            summary = json.loads(summaries[0].read_text(encoding="utf-8"))
            problems += summary_problems(summary)
            resume = summary.get("resume", {})
            if warm and (
                resume.get("executed"), resume.get("re_executed"), resume.get("cached")
            ) != (0, 0, n):
                problems.append(f"warm run re-executed cells: {resume}")
        return problems

    # -- phases --------------------------------------------------------------

    def setup(self) -> None:
        """Untimed-for-``wall_s`` preparation, timed as ``setup_s``.

        Campaigns build the reference digest; the warm campaign then
        populates its run dir (a cold run) and replays it once with
        ``--jsonl`` to prove the cache serves the reference bytes.
        Every other workload makes one discarded warm-up run, so page
        cache and ``.pyc`` files are in place before timing starts.
        """
        started, first_probe = perf_counter(), len(self.host.probes)
        self.host.probe()
        if self.is_campaign:
            self.reference = reference_digest(self.seed, self.sizes.cells)
        if self.is_warm:
            self.setup_problems += self.launch(populate=True).problems
            self.setup_problems += self.launch(replay=True).problems
        else:
            self.setup_problems += self.launch().problems
        self.setup_s = perf_counter() - started
        self.setup_speed = Host.speed(self.host.probes[first_probe:])

    def rep(self) -> None:
        self.runs.append(self.launch())

    def traced_run(self) -> None:
        self.traced.append(self.launch(trace=True))

    # -- results -------------------------------------------------------------

    def counts(self) -> tuple[int, int]:
        """(attempted, failed) operations; a bad repetition fails all its ops."""
        runs = self.runs + self.traced
        bad = [r for r in runs if r.problems or self.setup_problems]
        return self.ops * len(runs), self.ops * len(bad)

    def problems(self) -> list[str]:
        seen = list(self.setup_problems)
        for run in self.runs + self.traced:
            seen += [p for p in run.problems if p not in seen]
        return seen

    def end_to_end(self) -> dict[str, dict]:
        attempted, failed = self.counts()
        walls = [r.wall_s * r.speed for r in self.runs]
        return {
            "wall_s": summarize(walls, "s", raw=[r.wall_s for r in self.runs]),
            "cpu_s": summarize([r.cpu_s * r.speed for r in self.runs], "s",
                               raw=[r.cpu_s for r in self.runs]),
            "ops_per_s": summarize([self.ops / w for w in walls], "op/s",
                                   raw=[self.ops / r.wall_s for r in self.runs]),
            "peak_rss_mb": summarize([r.peak_rss_mb for r in self.runs], "MB"),
            "artifact_mb": summarize([r.artifact_mb for r in self.runs], "MB"),
            "pass_share": summarize([1 - failed / attempted], "ratio"),
            "setup_s": summarize([self.setup_s * self.setup_speed], "s",
                                 raw=[self.setup_s]),
        }

    def per_layer(self, host: dict[str, float]) -> dict[str, dict]:
        """Median over the traced runs of every per-layer metric."""
        layer_metrics = load_tracer().layer_metrics
        wall = statistics.median(r.wall_s * r.speed for r in self.runs)
        rows: dict[str, tuple[list[float], str]] = {}
        for run in self.traced:
            if run.trace is None:
                continue
            layers = layer_metrics(run.trace)
            layers["runtime.cache.bytes_per_cell"] = (
                run.results_bytes / self.sizes.cells, "B")
            layers["runtime.sweep.jsonl_bytes"] = (run.jsonl_bytes, "B")
            layers["trace.overhead_share"] = (
                (run.wall_s * run.speed - wall) / wall, "ratio")
            for name, (value, unit) in layers.items():
                scaled = value * run.speed if unit == "s" else value
                rows.setdefault(name, ([], unit))[0].append(scaled)
        out = {name: summarize(values, unit) for name, (values, unit) in rows.items()}
        for name, value in host.items():
            out[name] = summarize([value], "s" if name.endswith("_s") else "count")
        return out


@functools.cache
def load_tracer():
    """``ledger/trace.py`` as a module (by path: ``trace`` is also stdlib)."""
    spec = importlib.util.spec_from_file_location("ledger_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summarize(samples: list[float], unit: str, raw: list[float] | None = None) -> dict:
    """Median with quartiles and the sample count.

    No percentile above the median is reported: a run has fewer than
    the twenty samples even a p90 needs.  ``raw`` is the same quantity
    before host-speed scaling; only its median is kept.
    """
    value = statistics.median(samples)
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else (value,) * 3
    )
    out = {"value": value, "unit": unit, "q1": q1, "q3": q3,
           "n": len(samples), "samples": samples}
    if raw is not None:
        out["raw"] = statistics.median(raw)
    return out


def host_metadata() -> dict[str, Any]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=5,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": ask_python(
            "-c", "from repro.vector import backend_name; print(backend_name())"),
        "git_sha": git_sha,
        "loadavg": list(os.getloadavg()),
    }


def measure(names: list[str], seed: int, sizes: Sizes, *, reps: int | None,
            seconds: float | None, trace: bool) -> dict:
    """Set up, time and (optionally) trace ``names``; returns the ledger.

    Exactly one of ``reps``/``seconds`` is set.  With ``seconds`` the
    loop starts another round only while it is predicted to fit; when
    tracing too, the untraced repetitions get half the budget.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        meta, host = host_metadata(), Host()
        sessions = [Session(name, seed, sizes, work, host) for name in names]
        for session in sessions:
            session.setup()

        started = perf_counter()
        budget = None if seconds is None else (seconds / 2 if trace else seconds)
        rounds = 0
        while True:
            round_started = perf_counter()
            for session in sessions:  # round-robin: drift hits every workload alike
                session.rep()
            rounds += 1
            now = perf_counter()
            if reps is not None:
                if rounds >= reps:
                    break
            elif rounds >= MIN_TIMED_RUNS and (
                now - started + (now - round_started) > budget
            ):
                break
        while trace:
            round_started = perf_counter()
            for session in sessions:
                session.traced_run()
            now = perf_counter()
            if seconds is None or now - started + (now - round_started) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run's work dir is still in there
            pass

    load1, slowest, fastest = meta["loadavg"][0], max(host.probes), min(host.probes)
    meta.update(
        seed=seed, reps=reps, seconds=seconds, cells=sizes.cells,
        mc=[sizes.mc_n, sizes.mc_t],
        calib_s=[fastest, statistics.median(host.probes), slowest],
        # The host changed speed under the run, or something else was
        # running: the scaled figures are the best available, not clean.
        noisy=slowest > 1.10 * fastest or load1 > meta["nproc"] - 0.5,
    )
    host_layer = {"host.calib_s": meta["calib_s"][1], "host.load1": load1}
    ledger: dict[str, Any] = {"meta": meta, "workloads": {}}
    for session in sessions:
        attempted, failed = session.counts()
        ledger["workloads"][session.name] = {
            "attempted": attempted,
            "failed": failed,
            "problems": session.problems(),
            "end_to_end": session.end_to_end(),
            "per_layer": session.per_layer(host_layer) if trace else {},
        }
    return ledger


def print_ledger(ledger: dict) -> None:
    meta = ledger["meta"]
    print("host: " + ", ".join(f"{k}={meta[k]}" for k in (
        "cpu", "nproc", "python", "numpy", "backend", "git_sha", "loadavg")))
    print(f"run: seed={meta['seed']} reps={meta['reps']} seconds={meta['seconds']} "
          f"cells={meta['cells']} calib min/median/max="
          + "/".join(f"{c:.4f}" for c in meta["calib_s"])
          + f"s (reference {REFERENCE_CALIB_S}s) noisy={str(meta['noisy']).lower()}")
    for name, entry in ledger["workloads"].items():
        print(f"\n{name}: attempted {entry['attempted']}, failed {entry['failed']}")
        for problem in entry["problems"]:
            print(f"  PROBLEM {problem}")
        for group in ("end_to_end", "per_layer"):
            for metric, m in entry[group].items():
                spread = (f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
                          if m["n"] > 1 else "")
                raw = f"  [raw {m['raw']:.6g}]" if "raw" in m else ""
                print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}{spread}{raw}")


# -- compare -----------------------------------------------------------------


def judge(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for B against A.

    When either side's quartile spread is wider than the bound the
    medians cannot settle it: the row is ``unresolved`` unless the two
    sample sets do not overlap at all.
    """
    sign = 1 if better == "lower" else -1
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
    spread = max((m["q3"] - m["q1"]) / abs(m["value"]) for m in (a, b))
    if spread > bound:
        a_s = [sign * x for x in a["samples"]]
        b_s = [sign * x for x in b["samples"]]
        if max(b_s) < min(a_s):
            return "ok"
        if min(b_s) <= max(a_s):
            return "unresolved"
        return "regressed"
    return "regressed" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    for key in ("backend", "reps", "seconds", "seed", "cells"):
        if a["meta"][key] != b["meta"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['meta'][key]!r} vs {b['meta'][key]!r})", file=sys.stderr)
            return 2
    if set(a["workloads"]) != set(b["workloads"]):
        print("refusing to compare: the ledgers hold different workloads",
              file=sys.stderr)
        return 2
    for path, ledger in ((path_a, a), (path_b, b)):
        if ledger["meta"]["noisy"]:
            print(f"note: {path} was recorded on a noisy host")
    disagreements, specs = 0, benchmark_spec()["end_to_end"]
    for workload in a["workloads"]:
        for spec in specs:
            m_a, m_b = (x["workloads"][workload]["end_to_end"][spec["name"]]
                        for x in (a, b))
            status = judge(m_a, m_b, spec["better"], spec["bound"])
            disagreements += status != "ok"
            print(f"{workload:22s} {spec['name']:12s} {m_a['value']:>12.6g} -> "
                  f"{m_b['value']:>12.6g} {spec['unit']:5s} "
                  f"bound {spec['bound']:.1%}  {status}")
    return 1 if disagreements else 0


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None, sizes: Sizes = Sizes()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int,
                        help=f"timed repetitions per workload (default "
                             f"{DEFAULT_REPS}, at least {MIN_REPS})")
    parser.add_argument("--seconds", type=float,
                        help="measure --workload for this long instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --seconds: 0 reports end-to-end metrics, "
                             "1 the traced run's per-layer metrics")
    parser.add_argument("--out", metavar="FILE", help="write the ledger as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds is not None:
        if args.workload is None or args.reps is not None or args.trace is None:
            parser.error("--seconds needs --workload and --trace, and excludes --reps")
        reps = None
    else:
        if args.trace is not None:
            parser.error("--trace belongs to --seconds; a --reps ledger always traces")
        reps = DEFAULT_REPS if args.reps is None else args.reps
        if reps < MIN_REPS:
            parser.error(f"--reps must be at least {MIN_REPS}")
    sys.path.insert(0, str(SRC))

    names = [args.workload] if args.workload else list(WORKLOADS)
    ledger = measure(names, args.seed, sizes, reps=reps, seconds=args.seconds,
                     trace=args.seconds is None or args.trace == 1)
    print_ledger(ledger)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    failed = sum(entry["failed"] for entry in ledger["workloads"].values())
    if args.seconds is not None:
        entry = ledger["workloads"][args.workload]
        group = entry["per_layer"] if args.trace else entry["end_to_end"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in group.items()},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
