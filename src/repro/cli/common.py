"""Shared CLI helpers: named-run lookup and trace loading, each with
the standard one-line ``error:`` on failure.

The vocabulary itself lives in the runtime — the named runs in
:data:`repro.runtime.space.NAMED_CELLS`, the algorithms in
:mod:`repro.runtime.registry`; the names below are views of those
tables, kept because callers and tests import them from here.
"""

from __future__ import annotations

import sys
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import events_from_jsonl_lines
from repro.runtime.registry import (
    ALGORITHM_FACTORIES,
    UNIFORM_CONSENSUS_ALGORITHMS,
)
from repro.runtime.space import CELL_ALIASES as SCENARIO_ALIASES
from repro.runtime.space import NAMED_CELLS as SCENARIOS
from repro.runtime.space import NamedCell, named_cell

#: The algorithms ``repro latency`` (and friends) accept by name.
ALGORITHMS = {
    key: ALGORITHM_FACTORIES[key] for key in UNIFORM_CONSENSUS_ALGORITHMS
}


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
