"""Reference encoders for the per-cell lines of a run directory.

The writers under ``src/repro`` encode what the cells of one run share
once and splice in what differs per cell.  These are the lines they
must equal byte for byte, built the plain way: one ``json.dumps`` of
the whole record per cell.  They import nothing from ``repro``: a
request, a result and a template enter duck-typed.
"""

from __future__ import annotations

import json
from typing import Any


def store_cell_line(key: str, result: Any) -> bytes:
    """The result store's cell record for ``result`` under ``key``, as
    ``ResultCache.put`` appends it to a shard."""
    record = {
        "key": key,
        "name": result.name,
        "template": result.template.digest,
        "holes": list(result.holes),
        "decisions": {
            str(pid): [entry[0], entry[1]]
            for pid, entry in sorted(result.decisions.items())
        },
        "latency": result.latency,
        "num_rounds": result.num_rounds,
        "extra": result.extra,
    }
    return json.dumps(record, default=repr).encode("ascii") + b"\n"


def audit_line(
    *,
    leg: Any,
    name: str,
    key: str,
    cached: bool,
    engine: Any = None,
    algorithm: Any = None,
    latency: Any = None,
    num_rounds: Any = None,
    events: Any = None,
    duration_s: Any = None,
) -> str:
    """``RunDir.record_cell``'s ``metrics.jsonl`` line for one cell: the
    record of ``(name, key)`` in its ``cells`` with the other fields."""
    record = {
        "t": "cell",
        "leg": leg,
        "cell": name,
        "key": key,
        "cached": cached,
        "engine": engine,
        "algorithm": algorithm,
        "latency": latency,
        "num_rounds": num_rounds,
        "events": events,
        "duration_s": duration_s,
    }
    return json.dumps(record, sort_keys=True, default=repr) + "\n"
