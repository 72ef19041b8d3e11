"""A lightweight schema check for exported JSONL traces.

There is no jsonschema dependency to lean on, so the schema is encoded
directly: each event kind names its required and permitted fields.
``scripts/check_trace.py`` applies this to a file; the ``trace-smoke``
Makefile target and the CLI tests shell through it.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.obs.events import EVENT_KINDS

#: Fields every event must carry.
_COMMON_REQUIRED = ("kind", "ts")

#: Per-kind required fields beyond the common ones.
_REQUIRED: dict[str, tuple[str, ...]] = {
    "round_start": ("round",),
    "msg_sent": ("pid", "peer"),
    "msg_withheld": ("round", "pid", "peer"),
    "msg_delivered": ("pid", "peer"),
    "crash": ("pid",),
    "suspect": ("pid", "peer"),
    "decide": ("pid", "value"),
    "halt": ("pid",),
}

#: All fields any event may carry.
_ALLOWED = frozenset({"kind", "ts", "round", "time", "pid", "peer", "value"})


def validate_event_dict(data: dict[str, Any], line: int = 0) -> list[str]:
    """Return schema problems for one decoded event (empty when valid)."""
    where = f"line {line}: " if line else ""
    problems: list[str] = []
    kind = data.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(f"{where}unknown event kind {kind!r}")
        return problems
    for field in _COMMON_REQUIRED + _REQUIRED[kind]:
        if field not in data:
            problems.append(f"{where}{kind} event missing field {field!r}")
    unknown = set(data) - _ALLOWED
    if unknown:
        problems.append(
            f"{where}{kind} event has unknown fields {sorted(unknown)}"
        )
    if "ts" in data and not isinstance(data["ts"], (int, float)):
        problems.append(f"{where}ts must be numeric, got {data['ts']!r}")
    for field in ("round", "time", "pid", "peer"):
        if field in data and data[field] is not None and not isinstance(
            data[field], int
        ):
            problems.append(
                f"{where}{field} must be an integer, got {data[field]!r}"
            )
    return problems


def validate_jsonl_lines(lines: Iterable[str]) -> list[str]:
    """Validate a whole JSONL trace; returns all problems found."""
    problems: list[str] = []
    count = 0
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        count += 1
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            problems.append(f"line {number}: not valid JSON ({exc})")
            continue
        if not isinstance(data, dict):
            problems.append(f"line {number}: event must be a JSON object")
            continue
        problems.extend(validate_event_dict(data, line=number))
    if count == 0:
        problems.append("trace contains no events")
    return problems
