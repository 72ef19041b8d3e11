"""The campaign coordinator: leased shards in, merged run artifacts out.

One :class:`Coordinator` owns one scenario space and one
content-addressed run directory (the same ``runs/<run_id>`` layout
``repro sweep --run-dir`` writes — the run id derives from the request
cache keys, so a distributed campaign and a single-process sweep of the
same space land in the *same* directory and resume each other).  The
coordinator never executes cells; it

* plans shards over the cells the run directory has not completed
  (:func:`repro.serve.shards.plan_shards` — completed cells are never
  resharded, so a restarted coordinator provably re-executes nothing);
* leases shards to workers and re-queues shards whose lease expired
  (a killed or stalled worker forfeits its shard, nothing else);
* merges submitted results into the run's ``results/`` store, deduping
  on request cache key — at-least-once execution is safe because two
  executions of one request produce byte-identical results, and the
  first accepted submission wins;
* quarantines malformed submissions under ``quarantine/`` without
  letting them near the result store;
* finalizes ``summary.json`` (through the same
  :func:`~repro.obs.report.summarize_sweep` path as ``repro sweep``)
  once every planned cell's result is on disk, adding a ``serve``
  section with the fabric's own telemetry.

All public methods are thread-safe: the HTTP layer
(:mod:`repro.serve.api`) calls them from handler threads.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.runtime.campaign import CampaignLeg
from repro.runtime.request import ExecutionRequest, ExecutionResult
from repro.runtime.space import ScenarioSpace
from repro.runtime.sweep import SweepResult
from repro.serve.shards import (
    DEFAULT_SHARD_SIZE,
    DONE,
    LEASED,
    PENDING,
    ShardState,
    plan_shards,
)

#: Subdirectory of the run directory holding rejected submissions.
QUARANTINE_DIR = "quarantine"

#: Default seconds a worker may hold a shard before it is re-queued.
DEFAULT_LEASE_TTL = 60.0


class SubmitError(ValueError):
    """A malformed or inconsistent submission; the payload is
    quarantined and nothing reaches the result store."""


class Coordinator:
    """Shard, lease, merge and finalize one campaign.

    Args:
        space: The scenario space to execute.
        run_root: The runs root (e.g. ``runs/``); the actual directory
            is content-addressed from the request cache keys.
        shard_size: Cells per leased shard.
        lease_ttl: Seconds before an unsubmitted lease is re-queued.
        check: Run the trace oracle over every cell at finalize.
        clock: Monotonic time source (injectable for lease tests).
        on_cell: Optional ``(cell_name, cached)`` callback fired once
            per merged cell — the progress-reporter seam.
    """

    def __init__(
        self,
        space: ScenarioSpace,
        *,
        run_root: str,
        shard_size: int = DEFAULT_SHARD_SIZE,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        check: bool = False,
        clock: Callable[[], float] = time.monotonic,
        on_cell: Callable[[str, bool], None] | None = None,
    ) -> None:
        # Before the leg opens: a refused campaign leaves no directory.
        if shard_size < 1:
            raise ConfigurationError(
                f"shard size must be >= 1, got {shard_size}"
            )
        self.space = space
        self.requests: list[ExecutionRequest] = list(space.requests)
        self.keys: list[str] = [r.cache_key() for r in self.requests]
        if len(set(self.keys)) != len(self.keys):
            raise ConfigurationError(
                f"space {space.name!r} has colliding request cache keys; "
                "dedupe-by-key needs injective keys"
            )
        self.index_by_key = {key: i for i, key in enumerate(self.keys)}
        self.lease_ttl = float(lease_ttl)
        self.check = check
        self.clock = clock
        self.on_cell = on_cell
        self._lock = threading.RLock()

        #: The leg on the run directory: ``repro serve`` runs it as a context
        #: manager, others end it by :meth:`finalize`/:meth:`mark_interrupted`.
        self.leg = CampaignLeg(
            run_root,
            kind="sweep",
            name=space.name,
            requests=self.requests,
            config={"space": space.name, "mode": "serve", "check": check},
            label=f"serve:{space.name}",
        )
        self.run_dir = self.leg.run_dir
        self.cache = self.leg.cache
        #: Planned keys already completed when this leg started.
        self.completed_before = self.leg.completed_before
        #: Every planned key with a result on disk (grows as legs merge).
        self.merged: set[str] = set(self.completed_before)
        #: Keys whose results this leg stored (the leg's "executed").
        self.stored_this_leg: set[str] = set()

        missing = [
            i for i, key in enumerate(self.keys) if key not in self.merged
        ]
        self.shards: list[ShardState] = [
            ShardState(plan)
            for plan in plan_shards(missing, shard_size=shard_size)
        ]

        # Fabric telemetry.
        self.claims = 0
        self.stale_submissions = 0
        self.duplicate_cells = 0
        self.quarantined = 0
        self.workers: dict[str, dict[str, int]] = {}
        self._finalized: dict[str, Any] | None = None

        # Audit the resumed cells like a cache-warm sweep leg would.
        for request, key in zip(self.requests, self.keys):
            if key in self.completed_before:
                self._merged_cell(request)

    # -- lease side (worker-facing) ------------------------------------------

    def claim(self, worker_id: str) -> dict[str, Any]:
        """Lease the next pending shard to ``worker_id``.

        Returns a shard grant (``shard_id``, ``lease_id``, the cells'
        serialized requests), ``{"done": true}`` when every shard is
        merged, or ``{"wait": true}`` when all remaining shards are
        currently leased to other workers.
        """
        worker_id = str(worker_id or "anonymous")
        with self._lock:
            self._expire_leases()
            for shard in self.shards:
                if shard.status != PENDING:
                    continue
                lease_id = uuid.uuid4().hex
                shard.lease(
                    lease_id, worker_id, self.clock() + self.lease_ttl
                )
                self.claims += 1
                stats = self.workers.setdefault(
                    worker_id, {"claims": 0, "cells_merged": 0}
                )
                stats["claims"] += 1
                return {
                    "shard_id": shard.plan.shard_id,
                    "lease_id": lease_id,
                    "lease_ttl_s": self.lease_ttl,
                    "cells": [
                        {
                            "name": self.requests[i].name,
                            "key": self.keys[i],
                            "request": self.requests[i].to_dict(),
                        }
                        for i in shard.plan.indices
                    ],
                }
            if self.is_complete():
                return {"done": True}
            return {"wait": True, "retry_s": min(1.0, self.lease_ttl / 4)}

    def submit(self, payload: Any) -> dict[str, Any]:
        """Merge one shard's results; raise :class:`SubmitError` on junk.

        Validation is all-or-nothing: every entry must parse as an
        :class:`ExecutionResult` whose ``request_key`` is one of the
        named shard's planned keys, or the whole payload is rejected
        (the API layer quarantines it) and the store is untouched.
        A stale lease — expired, re-leased, or already completed — is
        *not* an error: content-addressed results make duplicate
        execution safe, so the results are merged with dedupe and the
        submission is only counted as stale.
        """
        with self._lock:
            if not isinstance(payload, Mapping):
                raise SubmitError(
                    f"payload is not an object (got {type(payload).__name__})"
                )
            shard_id = payload.get("shard_id")
            if not isinstance(shard_id, int) or not (
                0 <= shard_id < len(self.shards)
            ):
                raise SubmitError(f"unknown shard_id {shard_id!r}")
            entries = payload.get("results")
            if not isinstance(entries, list):
                raise SubmitError("'results' is not a list")
            shard = self.shards[shard_id]
            expected = {self.keys[i] for i in shard.plan.indices}
            parsed: list[ExecutionResult] = []
            for position, entry in enumerate(entries):
                try:
                    result = ExecutionResult.from_dict(entry)
                except (TypeError, KeyError, ValueError, AttributeError) as exc:
                    raise SubmitError(
                        f"results[{position}] does not parse as an "
                        f"ExecutionResult: {exc}"
                    ) from exc
                if result.request_key not in expected:
                    raise SubmitError(
                        f"results[{position}] carries key "
                        f"{result.request_key[:16]}… which is not in "
                        f"shard {shard_id}"
                    )
                parsed.append(result)

            worker_id = str(payload.get("worker_id") or "anonymous")
            stale = not (
                shard.status == LEASED
                and shard.lease_id == payload.get("lease_id")
            )
            if stale:
                self.stale_submissions += 1

            accepted = 0
            duplicates = 0
            for result in parsed:
                key = result.request_key
                if key in self.merged:
                    duplicates += 1
                    self.duplicate_cells += 1
                    continue
                index = self.index_by_key[key]
                result.cached = False
                self.cache.put(self.requests[index], result)
                self.merged.add(key)
                self.stored_this_leg.add(key)
                self._merged_cell(self.requests[index], result)
                accepted += 1
            stats = self.workers.setdefault(
                worker_id, {"claims": 0, "cells_merged": 0}
            )
            stats["cells_merged"] += accepted

            # A submission may complete any shard whose cells it covered
            # (a stale re-lease completes the *new* lease's shard too).
            for candidate in self.shards:
                if candidate.status != DONE and all(
                    self.keys[i] in self.merged
                    for i in candidate.plan.indices
                ):
                    candidate.complete()
            return {
                "accepted": accepted,
                "duplicates": duplicates,
                "stale": stale,
                "done": self.is_complete(),
            }

    def _merged_cell(
        self, request: ExecutionRequest, result: ExecutionResult | None = None
    ) -> None:
        """Audit a cell merged from a worker or (no result) found stored."""
        self.leg.on_cell(request, result)
        if self.on_cell is not None:
            self.on_cell(request.name, result is None)

    def _expire_leases(self) -> None:
        now = self.clock()
        for shard in self.shards:
            if shard.status == LEASED and now > shard.deadline:
                shard.expire()

    # -- quarantine ----------------------------------------------------------

    def quarantine(self, payload: Any, reason: str) -> str:
        """Persist a rejected submission for post-mortem; returns the path.

        The payload never touches ``results/`` — a quarantined
        submission can corrupt nothing, only occupy disk next to the
        artifacts it tried to pollute.
        """
        with self._lock:
            self.quarantined += 1
            directory = self.run_dir.path / QUARANTINE_DIR
            directory.mkdir(exist_ok=True)
            path = directory / f"q-{self.quarantined:04d}.json"
            if isinstance(payload, bytes):
                payload = payload.decode("utf-8", errors="replace")
            path.write_text(
                json.dumps(
                    {"reason": reason, "payload": payload},
                    sort_keys=True,
                    default=repr,
                )
                + "\n",
                encoding="utf-8",
            )
            return str(path)

    # -- status side ---------------------------------------------------------

    def is_complete(self) -> bool:
        """True when every planned cell's result is merged."""
        with self._lock:
            return len(self.merged) == len(self.keys)

    def status(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the fabric's state."""
        with self._lock:
            self._expire_leases()
            by_status = {PENDING: 0, LEASED: 0, DONE: 0}
            requeues = 0
            for shard in self.shards:
                by_status[shard.status] += 1
                requeues += shard.requeues
            return {
                "run_id": self.run_dir.run_id,
                "space": self.space.name,
                "status": (
                    "complete" if self.is_complete() else "serving"
                ),
                "cells": {
                    "planned": len(self.keys),
                    "merged": len(self.merged),
                    "completed_before": len(self.completed_before),
                    "executed": len(self.stored_this_leg),
                },
                "shards": {
                    "total": len(self.shards),
                    "pending": by_status[PENDING],
                    "leased": by_status[LEASED],
                    "done": by_status[DONE],
                    "requeued": requeues,
                },
                "lease_ttl_s": self.lease_ttl,
                "workers": {
                    name: dict(stats)
                    for name, stats in sorted(self.workers.items())
                },
                "claims": self.claims,
                "stale_submissions": self.stale_submissions,
                "duplicate_cells": self.duplicate_cells,
                "quarantined": self.quarantined,
            }

    def serve_stats(self) -> dict[str, Any]:
        """The ``serve`` section of the finalized summary."""
        status = self.status()
        return {
            "shards": status["shards"],
            "cells": status["cells"],
            "workers": status["workers"],
            "lease_ttl_s": self.lease_ttl,
            "claims": self.claims,
            "stale_submissions": self.stale_submissions,
            "duplicate_cells": self.duplicate_cells,
            "quarantined": self.quarantined,
        }

    # -- finalize ------------------------------------------------------------

    def build_sweep_result(self) -> SweepResult:
        """Assemble the campaign's :class:`SweepResult` from the store.

        Results are read back in *space order*, so the merged trace and
        the folded metrics are byte-identical to a single-process
        ``repro sweep`` of the same space — regardless of how many
        workers (or legs, or duplicate submissions) produced them.
        """
        with self._lock:
            results: list[ExecutionResult] = []
            for request, key in zip(self.requests, self.keys):
                result = self.cache.get(request)
                if result is None:
                    raise RuntimeError(
                        f"cell {request.name!r} ({key[:16]}…) has no "
                        "result on disk; campaign is not complete"
                    )
                # "cached" here means "not executed this leg": resumed
                # cells and pre-merged duplicates count as cached, so
                # the summary's resume arithmetic stays exact.
                result.cached = key not in self.stored_this_leg
                results.append(result)
            return SweepResult.aggregate(
                self.space.name,
                self.requests,
                results,
                executed=len(self.stored_this_leg),
                check=self.check,
                cache=self.cache,
            )

    def finalize(self) -> tuple[SweepResult, dict[str, Any]]:
        """Write ``summary.json`` once and return ``(result, summary)``."""
        from repro.obs.report import summarize_sweep

        with self._lock:
            if not self.is_complete():
                raise RuntimeError(
                    f"cannot finalize: {len(self.keys) - len(self.merged)} "
                    "cells still missing"
                )
            sweep_result = self.build_sweep_result()

            self._finalized = self.leg.finalize(
                lambda run_dir: {
                    **summarize_sweep(
                        run_dir,
                        sweep_result,
                        completed_before=self.completed_before,
                    ),
                    "serve": self.serve_stats(),
                }
            )
            return sweep_result, self._finalized

    def mark_interrupted(self) -> None:
        self.leg.interrupt()

    def summary_document(self) -> dict[str, Any]:
        """The finalized summary, or an ``in_progress`` status stub."""
        with self._lock:
            if self._finalized is not None:
                return self._finalized
            return {"in_progress": True, "status": self.status()}
