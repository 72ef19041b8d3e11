"""The one parallel-execution primitive the repo uses.

Everything that fans work out — sweep cells, the experiment suite —
goes through :func:`parallel_map`, so policy decisions (start method,
chunking, the serial fast path) live in exactly one place.  Results
always come back in input order; parallelism must never be observable
in outputs, only in wall-clock time.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

if TYPE_CHECKING:
    import multiprocessing.context

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """A sensible worker count for this machine."""
    return os.cpu_count() or 1


def _context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits imports); fall back otherwise."""
    # Imported here: the serial path (``jobs=1``) never needs a pool.
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T],
    *,
    jobs: int = 1,
    on_result: Callable[[R], None] | None = None,
) -> list[R]:
    """``[func(item) for item in items]``, optionally across a pool.

    ``jobs <= 1`` (or fewer than two items) runs serially in-process —
    no pool, no pickling, identical semantics.  ``func`` must be a
    module-level callable (or a ``functools.partial`` of one) and
    ``items`` picklable when ``jobs > 1``.

    ``on_result`` is invoked in the parent, in *input order*, as each
    result becomes available — the seam campaign telemetry hangs off
    (incremental cache writes, progress heartbeats).  With a pool this
    streams via ``imap``, so an interrupted run has already delivered
    every completed prefix result to the callback; parallelism still
    must never be observable in outputs, only in wall-clock time.
    """
    if jobs <= 1 or len(items) < 2:
        results: list[R] = []
        for item in items:
            result = func(item)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results
    workers = min(jobs, len(items))
    # Modest chunking keeps imap's overhead near pool.map for the tiny
    # cells the sweeps run, while still streaming results back early.
    chunksize = max(1, len(items) // (workers * 4))
    with _context().Pool(processes=workers) as pool:
        results = []
        for result in pool.imap(func, items, chunksize=chunksize):
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results

