"""Shared CLI helpers: named-run lookup, trace loading and ``--jobs``
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
from repro.runtime.space import CELL_ALIASES as SCENARIO_ALIASES
from repro.runtime.space import NAMED_CELLS as SCENARIOS
from repro.runtime.space import NamedCell, named_cell


def jobs_ok(jobs: int) -> bool:
    """Whether ``--jobs`` names at least one worker process; prints the
    error when it does not."""
    if jobs >= 1:
        return True
    print(f"error: --jobs must be at least 1 (got {jobs})", file=sys.stderr)
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
    """Parse a JSONL trace file; prints the error and returns None on failure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return events_from_jsonl_lines(handle)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
