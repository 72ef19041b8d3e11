"""Shared CLI helpers: named-run lookup, trace loading and count-flag
validation, each with the standard one-line ``error:`` on failure.

The vocabulary itself lives in the runtime — the named runs in
:data:`repro.runtime.space.NAMED_CELLS`; the names below are views of
that table, kept because callers and tests import them from here.
(``ALGORITHMS`` lives with its one user, :mod:`repro.cli.experiments`:
building it imports seven algorithm modules, and every campaign command
imports this module.)
"""

from __future__ import annotations

import sys
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import events_from_jsonl_lines
# The command modules and main.py's lazy table read the scenario tables
# from here, under the names the CLI prints.
from repro.runtime.space import CELL_ALIASES as SCENARIO_ALIASES  # noqa: F401
from repro.runtime.space import NAMED_CELLS as SCENARIOS  # noqa: F401
from repro.runtime.space import NamedCell, named_cell


def at_least_one(flag: str, value: int) -> bool:
    """Whether the count ``flag`` was given (``--jobs``, ``--top``) is
    at least 1; prints the error when it is not."""
    if value >= 1:
        return True
    print(f"error: {flag} must be at least 1 (got {value})", file=sys.stderr)
    return False


def resolve_scenario(name: str) -> NamedCell | None:
    """The named run ``name`` (or alias); prints the error and returns
    None when unknown."""
    try:
        return named_cell(name)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def load_trace(path: str) -> list[Any] | None:
    """Parse a JSONL trace file; prints the error and returns None on
    failure — unreadable, or not a trace (an empty file, an unknown
    event kind, a field of the wrong type: the JSONL schema's first
    problem)."""
    from repro.obs.schema import validate_jsonl_lines

    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    problems = validate_jsonl_lines(lines)
    if problems:
        print(f"error: {path}: {problems[0]}", file=sys.stderr)
        return None
    return events_from_jsonl_lines(lines)
