"""Shard planning and lease bookkeeping for the campaign fabric.

A *shard* is a contiguous slice of a scenario space's cell indices —
the unit of work the coordinator leases to workers.  Planning happens
once, over the cells a run directory has *not* completed yet: cells
whose results already sit in ``results/`` are never resharded, which is
what makes a restarted coordinator resume with ``re_executed == 0`` by
construction rather than by cache luck.

Leases are at-least-once by design.  A worker that dies mid-shard
simply stops heartbeating its lease; when the lease expires the shard
returns to the pending queue and another worker re-executes it.  That
is safe because results are content-addressed (the request cache key
names the result), so the merge step dedupes re-executions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

#: Default cells per shard.  Small enough that a lost lease forfeits
#: little work, large enough that a shard's equal cells share a run.
DEFAULT_SHARD_SIZE = 16


@dataclass(frozen=True)
class ShardPlan:
    """One planned shard: which space cells it covers."""

    shard_id: int
    #: Indices into the space's request tuple, in space order.
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def plan_shards(
    missing_indices: Sequence[int], shard_size: int = DEFAULT_SHARD_SIZE
) -> list[ShardPlan]:
    """Chunk the not-yet-completed cell indices into leased work units.

    Order is preserved (shards cover the space in space order) and
    every missing index lands in exactly one shard.  An empty input
    yields an empty plan — the campaign is already complete.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    indices = list(missing_indices)
    return [
        ShardPlan(
            shard_id=shard_id,
            indices=tuple(indices[start : start + shard_size]),
        )
        for shard_id, start in enumerate(range(0, len(indices), shard_size))
    ]


#: Lease lifecycle states of one shard.
PENDING = "pending"
LEASED = "leased"
DONE = "done"


@dataclass
class ShardState:
    """The coordinator's mutable view of one shard's lease lifecycle."""

    plan: ShardPlan
    status: str = PENDING
    lease_id: str | None = None
    worker_id: str | None = None
    #: Monotonic-clock deadline of the active lease.
    deadline: float = 0.0
    #: Times this shard went back to pending after a lease expired.
    requeues: int = 0

    def lease(
        self, lease_id: str, worker_id: str, deadline: float
    ) -> None:
        self.status = LEASED
        self.lease_id = lease_id
        self.worker_id = worker_id
        self.deadline = deadline

    def expire(self) -> None:
        """Return an overdue lease to the pending queue."""
        self.status = PENDING
        self.lease_id = None
        self.worker_id = None
        self.deadline = 0.0
        self.requeues += 1

    def complete(self) -> None:
        self.status = DONE
        self.lease_id = None
        self.deadline = 0.0
