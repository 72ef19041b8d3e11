"""The campaign worker: claim a shard, execute it, stream results back.

A worker is stateless by design — everything it needs arrives in the
shard grant (full serialized :class:`~repro.runtime.request.
ExecutionRequest` per cell), and everything it produces leaves in the
submit payload.  Killing a worker therefore loses nothing but its
current lease; the coordinator re-queues the shard when the lease
expires and another worker re-executes it, which the content-addressed
merge dedupes exactly.

Execution is the sweep path's own
(:func:`repro.runtime.sweep.execute_cells`): equal cells of a shard are
one run, ``--engine vector`` cells batch through the columnar kernel,
everything else runs on its own — the produced events and metrics are
byte-identical to a single-process ``repro sweep`` either way.  (Cell
profiles ride in ``extra`` and may differ across hosts; the
determinism contract covers events and metrics, never extras.  The
profiler used for span snapshots is process-global, so in-process test
workers on threads only ever contaminate telemetry, not traces.)
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Callable

from repro.runtime.request import ExecutionRequest
from repro.runtime.sweep import execute_cells
from repro.serve.api import (
    CoordinatorUnreachable,
    ServeAPIError,
    ServeClient,
)


def default_worker_id() -> str:
    """``host-pid``: unique enough to attribute leases in ``/status``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def execute_shard(
    grant: dict[str, Any],
    *,
    jobs: int = 1,
    throttle_s: float = 0.0,
    on_cell: Callable[[str], None] | None = None,
) -> list[dict[str, Any]]:
    """Execute one shard grant; returns serialized results in cell order.

    ``throttle_s`` sleeps between chunks — the fault-injection seam
    that makes "kill the worker mid-shard" deterministic in tests and
    smoke runs.
    """
    requests = [
        ExecutionRequest.from_dict(cell["request"])
        for cell in grant.get("cells", [])
    ]
    results: list[dict[str, Any] | None] = [None] * len(requests)

    def _arrived(positions: list[int], batch: list[Any]) -> None:
        for position, result in zip(positions, batch):
            results[position] = result.to_dict()
            if on_cell is not None:
                on_cell(result.name)
        if throttle_s > 0:
            time.sleep(throttle_s)

    execute_cells(requests, jobs=jobs, on_arrival=_arrived)
    return [entry for entry in results if entry is not None]


def run_worker(
    connect: str,
    *,
    worker_id: str | None = None,
    jobs: int = 1,
    throttle_s: float = 0.0,
    max_shards: int | None = None,
    connect_timeout_s: float = 30.0,
    request_timeout_s: float = 120.0,
    on_cell: Callable[[str], None] | None = None,
    log: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """The worker loop: claim → execute → submit, until the run is done.

    Returns a stats dict (shards/cells executed, why the loop ended).
    A coordinator that is not up yet is retried for
    ``connect_timeout_s``; a coordinator that *disappears* mid-run ends
    the loop with ``"reason": "disconnected"`` — the work already
    submitted is safe on the coordinator's disk, and the shard in
    flight will be re-leased by whoever coordinates next.
    """
    client = ServeClient(connect, timeout_s=request_timeout_s)
    me = worker_id or default_worker_id()
    say = log or (lambda message: None)
    stats: dict[str, Any] = {
        "worker_id": me,
        "shards": 0,
        "cells": 0,
        "stale_submissions": 0,
        "reason": "done",
    }

    deadline = time.monotonic() + connect_timeout_s
    while True:
        try:
            grant = client.claim(me)
        except CoordinatorUnreachable as exc:
            if stats["shards"] == 0 and time.monotonic() < deadline:
                time.sleep(0.1)
                continue
            say(f"{me}: coordinator gone ({exc}); stopping")
            stats["reason"] = "disconnected"
            return stats
        except ServeAPIError as exc:
            say(f"{me}: coordinator rejected claim: {exc}")
            stats["reason"] = "rejected"
            return stats

        if grant.get("done"):
            say(f"{me}: campaign complete")
            return stats
        if grant.get("wait"):
            time.sleep(float(grant.get("retry_s", 0.25)))
            continue

        shard_id = grant["shard_id"]
        say(f"{me}: executing shard {shard_id} ({len(grant['cells'])} cells)")
        results = execute_shard(
            grant, jobs=jobs, throttle_s=throttle_s, on_cell=on_cell
        )
        payload = {
            "shard_id": shard_id,
            "lease_id": grant["lease_id"],
            "worker_id": me,
            "results": results,
        }
        try:
            receipt = client.submit(payload)
        except CoordinatorUnreachable as exc:
            say(f"{me}: coordinator gone mid-submit ({exc}); stopping")
            stats["reason"] = "disconnected"
            return stats
        except ServeAPIError as exc:
            # A rejected submit means *this worker* produced junk; that
            # is a bug worth crashing on, not retrying around.
            raise RuntimeError(
                f"coordinator rejected shard {shard_id} from {me}: {exc}"
            ) from exc
        stats["shards"] += 1
        stats["cells"] += int(receipt.get("accepted", 0))
        if receipt.get("stale"):
            stats["stale_submissions"] += 1
        if max_shards is not None and stats["shards"] >= max_shards:
            stats["reason"] = "max_shards"
            return stats
