#!/usr/bin/env python
"""Fault-injected smoke of the campaign fabric (`make serve-smoke`).

Orchestrates one coordinator and three workers over a real loopback
HTTP fabric, with the fault the lease protocol exists for injected on
purpose:

1. start `repro serve SPACE` on an ephemeral port and discover the
   endpoint from the run directory's ``serve.json``;
2. start a *victim* worker, throttled so its first shard is still in
   flight, and SIGKILL it mid-shard;
3. start two healthy workers that drain the queue (the victim's shard
   re-queues once its lease expires);
4. wait for the coordinator to finalize and assert, from
   ``summary.json``, that at least one shard was re-queued, nothing
   was re-executed, and the distribution telemetry is coherent.

The caller (the Makefile target) then ``cmp``s the merged trace
against a single-process ``repro sweep`` of the same space and runs
``scripts/check_summary.py`` — byte identity and schema validity are
checked outside this process on purpose, so the smoke cannot vouch
for itself.

Exits 0 on success, 1 on any orchestration or telemetry failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path


def _spawn(*argv: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _fail(message: str, *procs: subprocess.Popen) -> int:
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        out = proc.communicate()[0]
        if out:
            print(f"--- {proc.args[3]} output ---\n{out}", file=sys.stderr)
    return 1


def _discover_endpoint(runs_root: Path, timeout_s: float) -> str | None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        for endpoint in runs_root.glob("*/serve.json"):
            try:
                document = json.loads(endpoint.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # racing the coordinator's atomic-ish write
            url = document.get("url", "")
            if url.startswith("http://"):
                return url[len("http://"):]
        time.sleep(0.1)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--space", default="e10-lambda")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--jsonl", required=True,
                        help="merged-trace path (cmp'd by the caller)")
    parser.add_argument("--lease-ttl", type=float, default=2.0)
    parser.add_argument("--shard-size", type=int, default=4)
    args = parser.parse_args(argv)
    runs_root = Path(args.run_dir)

    coordinator = _spawn(
        "serve", args.space, "--run-dir", args.run_dir,
        "--jsonl", args.jsonl,
        "--shard-size", str(args.shard_size),
        "--lease-ttl", str(args.lease_ttl),
    )
    connect = _discover_endpoint(runs_root, timeout_s=30.0)
    if connect is None:
        return _fail("coordinator never published serve.json", coordinator)
    print(f"serve-smoke: coordinator up at {connect}")

    # The victim: throttled hard enough that its first shard cannot
    # finish before the kill lands, so its lease dies with it.
    victim = _spawn(
        "work", "--connect", connect, "--worker-id", "victim",
        "--throttle-s", str(args.lease_ttl),
    )
    time.sleep(args.lease_ttl / 2)
    if victim.poll() is not None:
        return _fail("victim worker exited before the kill", coordinator, victim)
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    print("serve-smoke: killed worker 'victim' mid-shard")

    survivors = [
        _spawn("work", "--connect", connect, "--worker-id", f"w{index}")
        for index in range(2)
    ]
    try:
        coordinator.wait(timeout=300)
    except subprocess.TimeoutExpired:
        return _fail("coordinator never finalized", coordinator, *survivors)
    if coordinator.returncode != 0:
        return _fail(
            f"coordinator exited {coordinator.returncode}",
            coordinator, *survivors,
        )
    for survivor in survivors:
        if survivor.wait(timeout=30) != 0:
            return _fail("a surviving worker failed", survivor)

    summaries = list(runs_root.glob("*/summary.json"))
    if len(summaries) != 1:
        return _fail(f"expected one summary.json, found {len(summaries)}")
    summary = json.loads(summaries[0].read_text(encoding="utf-8"))
    serve = summary.get("serve", {})
    shards = serve.get("shards", {})
    problems = []
    if shards.get("requeued", 0) < 1:
        problems.append("the killed worker's shard was never re-queued")
    if shards.get("done") != shards.get("total"):
        problems.append(f"unfinished shards: {shards}")
    if summary.get("resume", {}).get("re_executed") != 0:
        problems.append(f"re-execution: {summary.get('resume')}")
    if serve.get("quarantined", 0) != 0:
        problems.append(f"unexpected quarantines: {serve}")
    if problems:
        return _fail("; ".join(problems))
    print(
        "serve-smoke: OK — shards "
        f"{shards.get('done')}/{shards.get('total')} "
        f"({shards.get('requeued')} re-queued), "
        f"workers {serve.get('workers')}, re_executed 0"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
