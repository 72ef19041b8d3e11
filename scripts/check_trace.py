#!/usr/bin/env python
"""Validate a JSONL event trace: schema and ordering.

Usage::

    PYTHONPATH=src python scripts/check_trace.py [--schema-only] TRACE.jsonl

Two layers of validation:

1. **Schema** — every line is a well-formed event dict (known kind,
   known and correctly-typed fields), via
   ``repro.obs.validate_jsonl_lines``.
2. **Ordering** — the event *sequence* is well-formed: rounds start at
   1 and increase by exactly 1, global step times are monotone, alive
   lists match the crash history, and no process acts after its crash
   or halt — via ``repro.obs.ordering_problems``.  Skipped with
   ``--schema-only`` (or automatically when the schema layer already
   failed, since ordering over malformed events is noise).

Exits 0 when the trace is valid, 1 otherwise (listing each problem),
2 on usage errors.  Used by ``make trace-smoke``, ``make causal-smoke``
and the CLI tests.
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    schema_only = "--schema-only" in args
    args = [a for a in args if a != "--schema-only"]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        from repro.obs import (
            events_from_jsonl_lines,
            ordering_problems,
            validate_jsonl_lines,
        )
    except ImportError:
        print(
            "cannot import repro.obs — run with PYTHONPATH=src or after "
            "`pip install -e .`",
            file=sys.stderr,
        )
        return 2
    try:
        with open(args[0], encoding="utf-8") as fp:
            lines = fp.readlines()
    except OSError as exc:
        print(f"cannot read {args[0]}: {exc}", file=sys.stderr)
        return 2
    problems = validate_jsonl_lines(lines)
    if not problems and not schema_only:
        problems = ordering_problems(events_from_jsonl_lines(lines))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args[0]}: INVALID ({len(problems)} problems)")
        return 1
    checked = "schema" if schema_only else "schema + ordering"
    print(f"{args[0]}: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
