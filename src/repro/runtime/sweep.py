"""Deterministic, parallel execution of scenario spaces.

:class:`SweepRunner` takes a :class:`~repro.runtime.space.ScenarioSpace`
and produces a :class:`SweepResult` with the same bytes whether it ran
serially or across a ``multiprocessing`` pool, cold or cache-warm:

* every cell is executed under a per-cell logical-clock event log
  (timestamps restart at 1.0), so a cell's trace is independent of the
  worker that ran it;
* the merged sweep trace re-stamps events with one global logical
  clock *in space order* — the only order-dependent step happens in
  the parent, after all workers finished;
* metrics states are folded in space order (counters add, histogram
  samples extend), so aggregates match between ``jobs=1`` and
  ``jobs=N``;
* with a :class:`~repro.runtime.cache.ResultCache`, cells whose stable
  request hash is already on disk are served without executing — a
  repeated sweep executes zero scenarios.

With ``check=True`` the PR-2 trace oracle runs over every produced
trace: model invariants (detector axioms, round synchrony, ordering)
must hold everywhere; consensus violations must appear exactly on the
cells documented to disagree.
"""

from __future__ import annotations

import functools
from copy import deepcopy
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TextIO

from repro.errors import ConfigurationError
from repro.obs.events import Event, event_parts
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler, get_profiler, profiled, set_profiler
# ``execute_batch`` is not called here: the ledger's tracer wraps this
# binding site and fails when it is gone (ROADMAP 8(a)).
from repro.runtime.harness import execute_batch, execute_request  # noqa: F401
from repro.runtime.request import ROUND_ENGINES, ExecutionResult

if TYPE_CHECKING:
    from repro.obs.check import CheckReport
    from repro.obs.template import TraceTemplate
    from repro.runtime.cache import ResultCache
    from repro.runtime.request import ExecutionRequest
    from repro.runtime.space import ScenarioSpace


@functools.cache
def _oracle() -> Callable[..., CheckReport]:
    """:func:`repro.obs.check.check_events`, imported when the first cell
    is checked: a sweep nobody checks never loads the trace oracle, and a
    checked one runs the import once, not per cell."""
    from repro.obs.check import check_events

    return check_events


def _execute_cell(request: ExecutionRequest) -> ExecutionResult:
    """Worker entry point: one cell under a worker-local profiler, timed.

    The wall and the span snapshot ride on the result as
    ``extra["profile"]`` — wall-clock telemetry for campaign summaries
    (slowest cells, per-engine span aggregates).  They ride in
    ``extra`` precisely because the determinism contract covers events
    and metrics, never extras: traces stay byte-identical across
    schedulers while the telemetry varies with the hardware.  Samples
    are also re-recorded into any profiler the caller had installed, so
    ``jobs=1`` runs under ``repro metrics``-style profiling see exactly
    the spans they always did.
    """
    outer = get_profiler()
    local = Profiler()
    set_profiler(local)
    started = perf_counter()
    try:
        result = execute_request(request)
    finally:
        set_profiler(outer)
    duration = perf_counter() - started
    if outer is not None:
        for name, samples in local.spans.items():
            for sample in samples:
                outer.record(name, sample)
    result.extra["profile"] = {
        "duration_s": duration,
        "spans": local.snapshot(),
    }
    return result


def _serve(
    result: ExecutionResult,
    cells: Sequence[ExecutionRequest],
    keys: Sequence[str],
) -> list[ExecutionResult]:
    """One run's result, once per cell the run served.

    ``result`` answers ``cells[0]``; every further cell gets it under
    its own ``name`` and ``request_key`` (``keys`` are the cells' cache
    keys), *sharing* the trace object,
    ``metrics`` and ``decisions`` (read-only from here on — identity of
    the trace is what lets the oracle and the merged-trace writer work
    once per run) and owning its ``extra``.  The run's wall is split
    evenly over the cells, and its span snapshot stays with the first.
    """
    profile = result.extra["profile"]
    profile["duration_s"] /= len(cells)
    served = [result]
    for at, request in enumerate(cells[1:], 1):
        extra = {
            key: deepcopy(value)
            for key, value in result.extra.items()
            if key != "profile"
        }
        extra["profile"] = {"duration_s": profile["duration_s"], "spans": {}}
        # The constructor, not dataclasses.replace, which walks fields()
        # and builds a kwargs dict per twin.
        served.append(
            ExecutionResult(
                name=request.name,
                request_key=keys[at],
                events=result.events,
                decisions=result.decisions,
                latency=result.latency,
                num_rounds=result.num_rounds,
                extra=extra,
                cached=result.cached,
            )
        )
    return served


def execute_cells(
    requests: Sequence[ExecutionRequest],
    keys: Sequence[str],
    *,
    jobs: int = 1,
    on_arrival: Callable[[list[int], list[ExecutionResult]], None],
) -> int:
    """Execute ``requests`` — equal cells as one run — and return how
    many runs that took.

    Cells whose requests agree in everything but ``name``
    (:meth:`~repro.runtime.request.ExecutionRequest.work_key`) are one
    run — every engine is a function of its request: the first of each
    group is executed and :func:`_serve` hands its result to the rest,
    under their keys from ``keys`` (the requests' cache keys, in
    order).  ``on_arrival(positions, results)`` is called in the
    parent, once per finished run, with every cell the run served:
    ascending positions into ``requests`` and their results, which
    share one trace object.
    """
    groups: dict[str, list[int]] = {}
    for position, request in enumerate(requests):
        groups.setdefault(request.work_key(), []).append(position)
    group_iter = iter(groups.values())

    def _arrived(result: ExecutionResult) -> None:
        group = next(group_iter)
        on_arrival(group, _serve(
            result,
            [requests[at] for at in group],
            [keys[at] for at in group],
        ))

    work = [requests[group[0]] for group in groups.values()]
    if jobs > 1:
        from repro.runtime.pool import parallel_map

        parallel_map(_execute_cell, work, jobs=jobs, on_result=_arrived)
    else:
        for request in work:
            _arrived(_execute_cell(request))
    return len(groups)


def check_model_for(request: ExecutionRequest) -> str | None:
    """Which synchrony checker applies to a cell's trace.

    The round executor (under either of its names) checks its own
    model.  The SS emulation's trace is step-level (no round-model
    synchrony claim to check, the
    deadline arithmetic is validated by its dedicated checker), so only
    the model-agnostic invariants run; the SP emulation lifts pending
    messages into ``msg_withheld`` events and must satisfy weak round
    synchrony.
    """
    if request.engine in ROUND_ENGINES:
        return request.model
    if request.engine == "rws_on_sp":
        return "RWS"
    return None


@dataclass
class CellCheck:
    """The oracle's verdict on one cell's trace."""

    name: str
    ok: bool
    model_errors: list[str] = field(default_factory=list)
    consensus_violations: int = 0
    expected_disagreement: bool = False
    #: The oracle's full report, for callers that print it.
    report: CheckReport | None = field(default=None, repr=False)

    def describe(self) -> str:
        if self.ok:
            suffix = (
                f" (documented disagreement reproduced, "
                f"{self.consensus_violations} violation(s))"
                if self.expected_disagreement
                else ""
            )
            return f"{self.name}: ok{suffix}"
        return "\n".join(
            [f"{self.name}: FAIL", *(f"  {p}" for p in self.problems())]
        )

    def problems(self) -> list[str]:
        """What a failing verdict objects to, one line each."""
        problems = list(self.model_errors)
        if self.expected_disagreement and not self.consensus_violations:
            problems.append("expected disagreement did not appear")
        if not self.expected_disagreement and self.consensus_violations:
            problems.append(
                f"{self.consensus_violations} unexpected consensus "
                "violation(s)"
            )
        return problems


#: The consensus clauses that reproduce a documented disagreement: the
#: only findings an ``expect_disagreement`` cell counts.
DISAGREEMENT = ("agreement", "uniform agreement")


def check_cell(
    request: ExecutionRequest, result: ExecutionResult
) -> CellCheck:
    """Run the trace oracle over one cell's events."""
    initial_values = (
        request.values
        if request.engine in ROUND_ENGINES and request.check_consensus
        else None
    )
    report = _oracle()(
        result.events,
        model=check_model_for(request),
        initial_values=initial_values,
    )
    model_errors = [
        violation.describe()
        for violation in report.errors
        if violation.checker != "consensus"
    ]
    consensus = [v.clause for v in report.errors if v.checker == "consensus"]
    if request.expect_disagreement:
        consensus = [clause for clause in consensus if clause in DISAGREEMENT]
    # A documented disagreement must show up whether or not the cell's
    # consensus verdict is judged; otherwise an unjudged cell tolerates
    # consensus violations and a judged one forbids them.
    ok = not model_errors
    if request.expect_disagreement:
        ok = ok and bool(consensus)
    elif request.check_consensus:
        ok = ok and not consensus
    return CellCheck(
        name=request.name,
        ok=ok,
        model_errors=model_errors,
        consensus_violations=len(consensus),
        expected_disagreement=request.expect_disagreement,
        report=report,
    )


@dataclass
class SweepResult:
    """Everything one sweep produced, in space order."""

    space_name: str
    requests: list[ExecutionRequest]
    results: list[ExecutionResult]
    executed: int
    cached: int
    #: Runs behind the cells: one per group of executed cells that were
    #: the same request but for ``name``, one per cell served from a
    #: store (equality is only established for cells that had to run).
    distinct: int
    metrics: MetricsRegistry
    checks: list[CellCheck] | None = None
    #: Oracle runs behind :attr:`checks`: one per distinct verdict key.
    judged: int = 0
    #: The backing cache's lifetime telemetry (hits/misses/stores/
    #: corrupt evictions), ``None`` when the sweep ran uncached.
    cache_stats: dict[str, int] | None = None

    @classmethod
    def aggregate(
        cls,
        space_name: str,
        requests: list[ExecutionRequest],
        results: list[ExecutionResult],
        *,
        executed: int,
        check: bool,
        cache: ResultCache | None,
        distinct: int | None = None,
    ) -> "SweepResult":
        """Build the result of a finished sweep from its space-ordered
        cells — the one aggregate phase, whoever executed them.

        Every cell gets its :class:`CellCheck`, but the oracle runs once
        per distinct *verdict key* (:func:`_verdict_key`): the inputs
        :func:`check_cell` reads, so cells that agree in them take the
        first one's verdict under their own name — the cells of one run
        and, since a store hands out one template per digest, the
        stored cells of one trace alike.  A cell holding an earlier
        cell's trace object is that cell's twin and takes its verdict
        before any key is built.  ``distinct`` defaults to one run per
        cell.
        """
        # Fold metrics in space order so the result is schedule-independent;
        # a run's twins share one state object, whose counters are added
        # once, times its multiplicity.
        registry = MetricsRegistry()
        registry.merge_states([result.metrics for result in results])
        # Only schedule-independent facts may enter the aggregate:
        # executed/cached counts live on the SweepResult, not in the
        # registry, so a cache-warm re-run aggregates identically.
        registry.counter("sweep.cells.total").inc(len(results))

        checks = None
        judged: dict[Any, CellCheck] = {}
        if check:
            with profiled("runtime.sweep.check"):
                checks = []
                # Verdicts by trace object first: the cells sharing one
                # are a run's twins, whose verdict keys are equal.
                by_trace: dict[int, CellCheck] = {}
                for request, result in zip(requests, results):
                    verdict = by_trace.get(id(result.events))
                    if verdict is None:
                        key = _verdict_key(request, result)
                        verdict = judged.get(key)
                        if verdict is None:
                            verdict = judged[key] = check_cell(request, result)
                        by_trace[id(result.events)] = verdict
                    if verdict.name != request.name:
                        verdict = CellCheck(
                            request.name,
                            verdict.ok,
                            verdict.model_errors,
                            verdict.consensus_violations,
                            verdict.expected_disagreement,
                            verdict.report,
                        )
                    checks.append(verdict)
        return cls(
            space_name=space_name,
            requests=requests,
            results=results,
            executed=executed,
            cached=len(results) - executed,
            distinct=len(results) if distinct is None else distinct,
            metrics=registry,
            checks=checks,
            judged=len(judged),
            cache_stats=cache.stats.as_dict() if cache is not None else None,
        )

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def checks_ok(self) -> bool:
        """True when checking ran, over at least one cell, and every cell
        passed: an empty space passes every check, so it passes none."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def merged_events(self) -> list[Event]:
        """All cells' events, re-stamped with one global logical clock.

        Concatenation follows space order and timestamps are assigned
        after the fact, so the merged trace is byte-identical no matter
        how many workers executed the cells (or how many came from the
        cache).  The reference the serialized routes
        (:meth:`merged_jsonl_lines`, :meth:`write_merged_jsonl`) are
        tested against.
        """
        merged: list[Event] = []
        tick = 0
        for result in self.results:
            for event in result.events:
                tick += 1
                merged.append(replace(event, ts=float(tick)))
        return merged

    def _merged_blocks(self) -> Iterator[tuple[str, int]]:
        """Each cell's lines of the merged trace, in space order: one
        newline-terminated string per cell and its event count.

        A cell's block is a ``%``-format string (:func:`_merged_block`)
        with one ``%d.0`` per event where the global tick goes, so a
        cell costs one ``%`` and the encoding is done once per
        template and decide values: the cells of one run share both.
        Blocks are remembered per write, for decide values of the
        :data:`_EXACT_TYPES` only; any other holes get theirs built
        for the cell.
        """
        tick = 0
        blocks: dict[tuple[Any, ...], str] = {}
        for result in self.results:
            template, holes = result.template, result.holes
            count = len(template.events)
            if not count:
                continue
            kinds = tuple(map(type, holes))
            if _EXACT_TYPES.issuperset(kinds):
                key = (template, holes, kinds)
                block = blocks.get(key)
                if block is None:
                    block = blocks[key] = _merged_block(template, holes)
            else:
                block = _merged_block(template, holes)
            end = tick + count
            if end >= _EXACT_TICKS:
                raise OverflowError(
                    f"merged trace tick {end} has no %d.0 spelling"
                )
            yield block % tuple(range(tick + 1, end + 1)), count
            tick = end

    def merged_jsonl_lines(self) -> Iterator[str]:
        """:meth:`merged_events` as JSONL, without building the events."""
        for block, _ in self._merged_blocks():
            yield from block[:-1].split("\n")

    def write_merged_jsonl(self, sink: str | TextIO) -> int:
        """Write :meth:`merged_jsonl_lines` to ``sink`` — a path, or a
        handle from :func:`open_merged_sink`, closed here either way —
        one ``write`` per cell; returns the number of events.  A write
        that fails (a full disk) is a :class:`ConfigurationError`."""
        count = 0
        try:
            with (
                open(sink, "w", encoding="utf-8")
                if isinstance(sink, str)
                else sink
            ) as handle:
                for block, events in self._merged_blocks():
                    handle.write(block)
                    count += events
        except OSError as exc:
            raise _unwritable(getattr(sink, "name", sink), exc) from exc
        return count

    def latency_by_algorithm(self) -> dict[str, tuple[int | None, int | None]]:
        """Per-algorithm ``(best, worst)`` decision latency over the space.

        Over a failure-free space this is the paper's ``(lat(A, C*),
        Λ(A))`` pair: ``Λ(A) = Lat(A, 0)`` is exactly the worst case
        over the failure-free runs.  ``None`` appears when some cell
        left a correct process undecided.
        """
        tally: dict[str, dict[str, Any]] = {}
        for request, result in zip(self.requests, self.results):
            entry = tally.setdefault(
                request.algorithm,
                {"best": None, "worst": 0, "incomplete": False},
            )
            if result.latency is None:
                entry["incomplete"] = True
            else:
                entry["best"] = (
                    result.latency
                    if entry["best"] is None
                    else min(entry["best"], result.latency)
                )
                entry["worst"] = max(entry["worst"], result.latency)
        return {
            name: (
                entry["best"],
                None if entry["incomplete"] else entry["worst"],
            )
            for name, entry in tally.items()
        }

    def describe(self) -> str:
        lines = [
            f"space '{self.space_name}': {self.total} scenarios; "
            f"executed {self.executed}, cached {self.cached}"
        ]
        if self.cache_stats is not None and self.cache_stats.get(
            "corrupt_evictions"
        ):
            lines.append(
                f"cache: evicted {self.cache_stats['corrupt_evictions']} "
                "corrupt entr(y/ies) — served as misses and re-executed"
            )
        if self.checks == []:
            lines.append("oracle: 0/0 cells — vacuous, nothing checked")
        elif self.checks is not None:
            failed = [check for check in self.checks if not check.ok]
            lines.append(
                f"oracle: {self.total - len(failed)}/{self.total} cells clean"
            )
            lines.extend(check.describe() for check in failed)
        return "\n".join(lines)

    def describe_sharing(self) -> str | None:
        """How many runs stood behind the cells, for a user who asked
        for 2000 and saw 109; ``None`` when every cell was its own run.

        Its own line, which the CLI prints on stderr: :meth:`describe`
        is a sweep's stdout, and stdout is the whole measured artifact
        of a sweep without a run directory.
        """
        if self.distinct >= self.total:
            return None
        return (
            f"space '{self.space_name}': {self.total} scenarios "
            f"({self.distinct} distinct); equal cells shared a run"
        )


#: The scalar types whose equality, type included, implies equal JSON.
#: ``(0, 1)`` equals ``(False, True)`` and ``0.0`` equals ``-0.0``, and
#: neither pair prints alike.
_EXACT_TYPES = frozenset((int, str, bool))


def _verdict_key(request: ExecutionRequest, result: ExecutionResult) -> Any:
    """Everything :func:`check_cell` reads of a cell, as a dict key.

    The template by identity (equal content, one object: a run's twins
    share theirs, a store hands out one per digest), the holes and the
    inputs with their exact types, and the request fields that choose
    the checkers and the verdict rule.  Holes or inputs of any other
    type key the cell by its trace object, which only the cells of one
    run share.
    """
    holes, values = result.holes, request.values
    hole_types = tuple(map(type, holes))
    value_types = tuple(map(type, values))
    if not (
        _EXACT_TYPES.issuperset(hole_types)
        and _EXACT_TYPES.issuperset(value_types)
    ):
        return id(result.events)
    return (
        id(result.template),
        holes,
        hole_types,
        values,
        value_types,
        check_model_for(request),
        request.engine,
        request.expect_disagreement,
        request.check_consensus,
    )


#: The ticks below which ``"%d.0" % tick`` is ``float.__repr__(float(tick))``:
#: a float holds every integer up to 2**53 exactly, and prints one below
#: 10**16 as its digits and ``.0``.
_EXACT_TICKS = 2**53


def _merged_block(template: TraceTemplate, holes: tuple[Any, ...]) -> str:
    """One cell's merged-trace lines as a ``%``-format string: each
    line's timestamp is ``%d.0``, every other ``%`` is escaped.

    The lines are the template's event parts
    (:meth:`~repro.obs.template.TraceTemplate.parts`) around the tick,
    formatted once per template.  What a cell adds is its decide
    values, and ``"value"`` is the one :class:`Event` key sorting after
    ``"ts"``: a decide's line is the template's head, the tick, and the
    tail of a decide of that value alone.
    """
    lines, heads = template.remember(
        "merged_formats", lambda: _formats(template)
    )
    if holes:
        lines = list(lines)
        for position, value in zip(template.positions, holes):
            lines[position] = heads[position] + _decide_tail(value)
    return "\n".join(lines) + "\n"


def _formats(template: TraceTemplate) -> tuple[list[str], dict[int, str]]:
    """A template's merged-trace line formats, and the heads (prefix and
    tick) of its decide lines by position."""
    parts = [
        (head.replace("%", "%%") + "%d.0", tail.replace("%", "%%"))
        for head, tail, _, _ in template.parts()
    ]
    return (
        [head + tail for head, tail in parts],
        {position: parts[position][0] for position in template.positions},
    )


def _decide_tail(value: Any) -> str:
    """What follows the timestamp on the line of a decide of ``value``,
    ``%``-escaped: the tail of its shape (:func:`event_parts`)."""
    tail = event_parts(Event("decide", 0.0, value=value)).tail
    return tail.replace("%", "%%")


def open_merged_sink(path: str) -> TextIO:
    """Open ``path`` for :meth:`SweepResult.write_merged_jsonl`.

    For callers that learn the path before they run the campaign: an
    unwritable one is a :class:`ConfigurationError` now, not an
    ``OSError`` after the last cell.
    """
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def _unwritable(path: Any, exc: OSError) -> ConfigurationError:
    return ConfigurationError(
        f"cannot write merged trace to {path}: {exc.strerror or exc}"
    )


class SweepRunner:
    """Execute a scenario space — serially or across a process pool.

    Args:
        jobs: Worker processes; ``1`` (default) runs in-process.
        cache: A :class:`ResultCache`, or ``None`` to disable caching.
        check: Run the trace oracle over every cell's trace.
        on_run: Called in the parent, in completion order, once per
            run — ``on_run(requests, results)`` with the cells the run
            served, in space order, and ``results[0].cached`` telling
            hits from fresh executions.  Store hits come first, each a
            run of one, in space order.  The campaign-telemetry seam:
            the ``metrics.jsonl`` audit log hangs off it without the
            runner knowing about run directories.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: ResultCache | None = None,
        check: bool = False,
        on_run: Callable[
            [list[ExecutionRequest], list[ExecutionResult]], None
        ] | None = None,
    ) -> None:
        self.jobs = jobs
        self.cache = cache
        self.check = check
        self.on_run = on_run

    def run(
        self, space: ScenarioSpace, *, keys: Sequence[str] | None = None
    ) -> SweepResult:
        """Execute ``space``; ``keys`` are its requests' cache keys, in
        order, when the caller already holds them (a campaign leg hashed
        them for its run id), so no cell is asked for its key again."""
        requests = list(space.requests)
        results: list[ExecutionResult | None] = [None] * len(requests)
        if keys is None:
            keys = [request.cache_key() for request in requests]
        elif len(keys) != len(requests):
            raise ValueError(
                f"{len(keys)} keys for {len(requests)} requests"
            )

        with profiled("runtime.sweep"):
            # Cache phase: resolve hits in the parent so workers only
            # ever see genuine work.
            misses: list[int] = []
            if self.cache is not None:
                for index, request in enumerate(requests):
                    hit = self.cache.get(keys[index])
                    if hit is not None:
                        results[index] = hit
                        if self.on_run is not None:
                            self.on_run([request], [hit])
                    else:
                        misses.append(index)
            else:
                misses = list(range(len(requests)))

            # Execute phase: the misses, equal cells as one run.  Each
            # run's cells are cached (and reported) the moment they
            # arrive, so a campaign killed mid-sweep keeps every
            # completed run — that is what makes run directories
            # resumable.
            def _arrived(
                positions: list[int], batch: list[ExecutionResult]
            ) -> None:
                served = [misses[position] for position in positions]
                for index, result in zip(served, batch):
                    results[index] = result
                if self.cache is not None:
                    # Equal traces of different runs share the store's
                    # template, and with it the oracle's, the causal
                    # summary's and the merged-trace writer's
                    # per-template memos; the run's cells share one
                    # trace object, rebound once.
                    batch[0].events.template = self.cache.put(batch)
                if self.on_run is not None:
                    self.on_run([requests[index] for index in served], batch)

            with profiled("runtime.sweep.execute"):
                runs = execute_cells(
                    [requests[index] for index in misses],
                    [keys[index] for index in misses],
                    jobs=self.jobs,
                    on_arrival=_arrived,
                )

        final: list[ExecutionResult] = [r for r in results if r is not None]
        assert len(final) == len(requests)
        return SweepResult.aggregate(
            space.name,
            requests,
            final,
            executed=len(misses),
            distinct=len(requests) - len(misses) + runs,
            check=self.check,
            cache=self.cache,
        )


def run_space(
    space: ScenarioSpace,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    check: bool = False,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(jobs=jobs, cache=cache, check=check).run(space)
