"""One traced run: ``python ledger/trace.py OUT.json REPRO_ARGV...``.

Runs ``repro.cli.main.main(REPRO_ARGV)`` once, in this (fresh)
interpreter, with a timing wrapper installed on every layer boundary
named in :data:`SITES`.  Each wrapper patches the *binding site* the
pipeline calls through (``repro.runtime.sweep:execute_batch``, not
``repro.runtime.harness:execute_batch``), so ``src/`` is never edited
and a rename there makes :func:`resolve` fail loudly instead of
dropping a layer silently.

Spans ``[name, start, end, parent]`` stay in memory until ``main``
returns; they are then written to OUT.json with per-name
count/total/self aggregates, the boundary counters, the captured
stdout and the exit code.  The one number the file cannot hold — how
long writing it took — goes to stdout as ``{"report_s": ...}`` so the
caller can subtract it from the launch-to-exit wall.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

ROOT_SPAN = "cli.main"

#: ``module:attr`` binding site -> span name.  The single table the
#: tracer installs from; ``ledger/selftest.py`` resolves every entry.
SITES = {
    "repro.cli.sweep:space_by_name": "runtime.space.build",
    "repro.cli.sweep:vectorized_space": "runtime.space.vectorize",
    "repro.runtime.request:ExecutionRequest.cache_key": "runtime.request.key",
    "repro.runtime.cache:ResultCache.get": "runtime.cache.get",
    "repro.runtime.cache:ResultCache.put": "runtime.cache.put",
    "repro.runtime.sweep:execute_request": "rounds.execute",
    "repro.runtime.sweep:execute_batch": "vector.batch",
    "repro.runtime.sweep:check_cell": "obs.check.cell",
    "repro.obs.critical:causal_summary": "obs.critical.summary",
    "repro.cli.sweep:summarize_sweep": "obs.report.summarize",
    "repro.obs.artifacts:RunDir.open": "obs.artifacts.open",
    "repro.obs.artifacts:RunDir.record_cell": "obs.artifacts.record",
    "repro.obs.artifacts:RunDir.finalize": "obs.artifacts.finalize",
    "repro.runtime.sweep:SweepRunner.run": "runtime.sweep.run",
    "repro.runtime.sweep:SweepResult.write_merged_jsonl": "runtime.sweep.merge_write",
    "repro.mc:check": "mc.checker.check",
    "repro.mc.checker:explore": "mc.explore",
    "repro.mc.explore:orbit_canonical": "mc.symmetry.orbit",
}


def _count_space(c: dict, args: tuple, out: Any) -> None:
    c["runtime.space.cells"] = len(out.requests)


def _count_get(c: dict, args: tuple, out: Any) -> None:
    c["runtime.cache.hits"] += out is not None
    c["runtime.cache.corrupt_evictions"] = args[0].stats.corrupt_evictions


def _count_batch(c: dict, args: tuple, out: Any) -> None:
    c["vector.cells"] += len(out)
    c["vector.fallbacks"] += sum(
        1 for result in out if "vector_fallback" in result.extra
    )


def _count_check(c: dict, args: tuple, out: Any) -> None:
    c["obs.check.failed"] += not out.ok


def _count_run(c: dict, args: tuple, out: Any) -> None:
    c["runtime.sweep.events_held"] += sum(len(r.events) for r in out.results)


def _count_merge(c: dict, args: tuple, out: Any) -> None:
    c["runtime.sweep.events_written"] += out


def _count_explore(c: dict, args: tuple, out: Any) -> None:
    stats = out.stats
    c["mc.explore.states_generated"] += stats.states_generated
    c["mc.explore.states_visited"] += stats.states_visited
    c["mc.explore.leaves"] += stats.leaves


#: Span name -> counter hook run on the wrapped call's return value, so
#: ratios are counted at the boundary where the work happens.
COUNTERS: dict[str, Callable[[dict, tuple, Any], None]] = {
    "runtime.space.build": _count_space,
    "runtime.cache.get": _count_get,
    "vector.batch": _count_batch,
    "obs.check.cell": _count_check,
    "runtime.sweep.run": _count_run,
    "runtime.sweep.merge_write": _count_merge,
    "mc.explore": _count_explore,
}


class Tracer:
    """In-memory span store: ``[name, start, end, parent index]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._current = -1

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, counters, count = self.spans, self.counters, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, perf_counter(), 0.0, self._current]
            spans.append(span)
            self._current = index
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._current = span[3]
            if count is not None:
                count(counters, args, out)
            return out

        return traced

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per-name count, total and self time (children subtracted)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for (name, start, end, _), child_s in zip(self.spans, covered):
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s
        return table


def resolve(site: str) -> tuple[Any, str, Any]:
    """``module:attr[.attr]`` -> (owner, attribute name, raw attribute).

    Raises ``ImportError``/``AttributeError`` when the site is gone.
    The raw attribute comes from the owner's ``__dict__`` when it has
    one there, so a ``classmethod`` object is seen as such.
    """
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    bound = getattr(owner, attr)
    return owner, attr, vars(owner).get(attr, bound)


def install(tracer: Tracer) -> None:
    for site, name in SITES.items():
        owner, attr, raw = resolve(site)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(tracer.wrap(raw.__func__, name))
        else:
            wrapped = tracer.wrap(raw, name)
        setattr(owner, attr, wrapped)


def _span(table: dict, name: str, field: str) -> float:
    return table.get(name, {}).get(field, 0)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics one traced run supports: name -> (value, unit).

    ``_s`` figures are span *self* times summed over the span's calls;
    ``_calls``/``cells``/``states_*`` are counts that repeat exactly.
    """
    t, c = trace["by_name"], defaultdict(int, trace["counters"])
    cells = c["runtime.space.cells"]
    keys = _span(t, "runtime.request.key", "count")
    gets = _span(t, "runtime.cache.get", "count")
    return {
        "cli.import_s": (trace["import_s"], "s"),
        "cli.modules_imported": (trace["modules_imported"], "count"),
        "runtime.space.build_s": (_span(t, "runtime.space.build", "self_s"), "s"),
        "runtime.space.vectorize_s": (_span(t, "runtime.space.vectorize", "self_s"), "s"),
        "runtime.space.cells": (cells, "count"),
        "runtime.request.key_calls": (keys, "count"),
        "runtime.request.key_s": (_span(t, "runtime.request.key", "self_s"), "s"),
        "runtime.request.keys_per_cell": (_share(keys, cells), "ratio"),
        "runtime.cache.get_calls": (gets, "count"),
        "runtime.cache.get_s": (_span(t, "runtime.cache.get", "self_s"), "s"),
        "runtime.cache.hit_share": (_share(c["runtime.cache.hits"], gets), "ratio"),
        "runtime.cache.put_calls": (_span(t, "runtime.cache.put", "count"), "count"),
        "runtime.cache.put_s": (_span(t, "runtime.cache.put", "self_s"), "s"),
        "runtime.cache.corrupt_evictions": (c["runtime.cache.corrupt_evictions"], "count"),
        "rounds.execute_calls": (_span(t, "rounds.execute", "count"), "count"),
        "rounds.execute_s": (_span(t, "rounds.execute", "self_s"), "s"),
        "vector.batch_calls": (_span(t, "vector.batch", "count"), "count"),
        "vector.batch_s": (_span(t, "vector.batch", "self_s"), "s"),
        "vector.cells": (c["vector.cells"], "count"),
        "vector.fallback_share": (_share(c["vector.fallbacks"], c["vector.cells"]), "ratio"),
        "obs.check.cells": (_span(t, "obs.check.cell", "count"), "count"),
        "obs.check.cell_s": (_span(t, "obs.check.cell", "self_s"), "s"),
        "obs.check.failed": (c["obs.check.failed"], "count"),
        "obs.critical.summary_calls": (_span(t, "obs.critical.summary", "count"), "count"),
        "obs.critical.summary_s": (_span(t, "obs.critical.summary", "self_s"), "s"),
        "obs.report.summarize_self_s": (_span(t, "obs.report.summarize", "self_s"), "s"),
        "obs.artifacts.open_s": (_span(t, "obs.artifacts.open", "self_s"), "s"),
        "obs.artifacts.record_calls": (_span(t, "obs.artifacts.record", "count"), "count"),
        "obs.artifacts.record_s": (_span(t, "obs.artifacts.record", "self_s"), "s"),
        "obs.artifacts.finalize_s": (_span(t, "obs.artifacts.finalize", "self_s"), "s"),
        "runtime.sweep.run_self_s": (_span(t, "runtime.sweep.run", "self_s"), "s"),
        "runtime.sweep.merge_write_s": (_span(t, "runtime.sweep.merge_write", "self_s"), "s"),
        "runtime.sweep.events_held": (c["runtime.sweep.events_held"], "count"),
        "runtime.sweep.events_written": (c["runtime.sweep.events_written"], "count"),
        "mc.checker.check_self_s": (_span(t, "mc.checker.check", "self_s"), "s"),
        "mc.explore.self_s": (_span(t, "mc.explore", "self_s"), "s"),
        "mc.explore.states_generated": (c["mc.explore.states_generated"], "count"),
        "mc.explore.states_visited": (c["mc.explore.states_visited"], "count"),
        "mc.explore.visited_share": (
            _share(c["mc.explore.states_visited"], c["mc.explore.states_generated"]),
            "ratio",
        ),
        "mc.explore.leaves": (c["mc.explore.leaves"], "count"),
        "mc.symmetry.orbit_calls": (_span(t, "mc.symmetry.orbit", "count"), "count"),
        "mc.symmetry.orbit_s": (_span(t, "mc.symmetry.orbit", "self_s"), "s"),
        "trace.unattributed_s": (_span(t, ROOT_SPAN, "self_s"), "s"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    out_path, repro_argv = argv[0], argv[1:]

    started = perf_counter()
    loaded = len(sys.modules)
    from repro.cli.main import main as cli_main

    import_s = perf_counter() - started
    modules_imported = len(sys.modules) - loaded

    tracer = Tracer()
    install(tracer)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        exit_code = tracer.wrap(cli_main, ROOT_SPAN)(repro_argv)
    finished = perf_counter()

    document = {
        "argv": repro_argv,
        "exit_code": exit_code,
        "stdout": stdout.getvalue(),
        "import_s": import_s,
        "modules_imported": modules_imported,
        "inproc_wall_s": finished - started,
        "counters": dict(tracer.counters),
        "by_name": tracer.by_name(),
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    print(json.dumps({"report_s": perf_counter() - finished}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
