"""Reference encoders for the records of a run directory and a sweep.

The writers under ``src/repro`` encode what the cells of one run share
once, and what events of one shape share once per shape, and splice in
what differs.  These are the texts they must equal byte for byte,
built the plain way: one ``json.dumps`` of the whole record per cell,
template or event.  They import nothing from ``repro``: a request, a
result, a template and an event enter duck-typed (an event by its
fields ``kind``, ``ts``, ``round``, ``time``, ``pid``, ``peer`` and
``value``; a template by ``events``, ``positions`` and ``metrics``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Sequence

#: An event's optional fields, in the order its record lists them.
_OPTIONAL = ("round", "time", "pid", "peer", "value")


def event_record(event: Any, **overrides: Any) -> dict[str, Any]:
    """An event's JSON object: ``kind`` and ``ts``, then every optional
    field that is not ``None`` (after ``overrides``)."""
    fields = {
        "kind": event.kind,
        "ts": event.ts,
        **{name: getattr(event, name) for name in _OPTIONAL},
        **overrides,
    }
    return {
        name: value
        for name, value in fields.items()
        if value is not None or name in ("kind", "ts")
    }


def _template_body(template: Any) -> dict[str, Any]:
    return {
        "events": [event_record(event) for event in template.events],
        "positions": list(template.positions),
        "metrics": template.metrics,
    }


def template_digest(template: Any) -> str:
    """The content hash a stored cell cites its template by: sha256 of
    the body's ``json.dumps`` with sorted keys."""
    body = json.dumps(_template_body(template), sort_keys=True, default=repr)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def store_template_line(template: Any) -> bytes:
    """The result store's template record, as ``ResultCache.put``
    appends it to a shard ahead of the first cell citing it."""
    record = {
        "template": template_digest(template),
        **_template_body(template),
    }
    return json.dumps(record, default=repr).encode("ascii") + b"\n"


def merged_lines(cells: Sequence[tuple[Any, Sequence[Any]]]) -> list[str]:
    """The merged sweep trace of ``(template, holes)`` cells, in order:
    each cell's events with its decide values filled in, re-stamped
    with one global tick from 1.0, one sorted-key ``json.dumps`` each."""
    lines = []
    for template, holes in cells:
        filled = dict(zip(template.positions, holes))
        for index, event in enumerate(template.events):
            overrides = {"ts": float(len(lines) + 1)}
            if index in filled:
                overrides["value"] = filled[index]
            lines.append(json.dumps(
                event_record(event, **overrides), sort_keys=True, default=repr
            ))
    return lines


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
