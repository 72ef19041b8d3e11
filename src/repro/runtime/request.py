"""The unified execution interface: ``ExecutionRequest → ExecutionResult``.

A request is a complete, immutable, serializable description of one
execution cell — which engine to run, which algorithm, which adversary,
and under which knobs.  Everything a worker process or a cache lookup
needs is in the request; nothing is ambient.  That is what makes sweeps
shippable across a process pool and replayable from disk:

* requests are plain frozen data → picklable for ``multiprocessing``;
* ``to_dict``/``from_dict`` round-trip through JSON → cacheable;
* :meth:`ExecutionRequest.cache_key` hashes the canonical JSON form →
  a stable identity for the on-disk result cache.

A result carries the structured event trace (recorded under the
deterministic logical clock), the raw metrics state, and the run's
decisions — enough for the trace oracle, the merge step, and the
latency aggregations, without re-executing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.failures.pattern import FailurePattern
from repro.inject import active_injection
from repro.obs.events import Event
from repro.obs.template import TraceTemplate
from repro.rounds.scenario import FailureScenario
from repro.serialize import (
    pattern_from_dict,
    pattern_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)

#: Bump when the result schema or engine semantics change incompatibly;
#: part of every cache key, so stale cache entries miss instead of
#: resurfacing under a new schema.
#: v2: results carry ``extra`` (the emulations' induced round scenario).
#: v3: the result store is packed ``shard-*.jsonl`` template⊕holes
#: records (:mod:`repro.runtime.cache`); v2 ``<key>.json`` files miss.
CACHE_SCHEMA_VERSION = 3

#: The engines a request may target.  ``"vector"`` runs the same RS/RWS
#: round semantics as ``"rounds"`` on the columnar batch kernel
#: (:mod:`repro.vector`) — same inputs, byte-identical traces, distinct
#: cache keys (the engine name is part of the request).
ENGINES = ("rounds", "rs_on_ss", "rws_on_sp", "live", "vector")


@dataclass(frozen=True)
class ExecutionRequest:
    """One execution cell of a scenario space.

    Attributes:
        name: Human-readable cell label (unique within a space).
        engine: ``"rounds"`` (the RS/RWS round executor),
            ``"vector"`` (the columnar batch kernel running the same
            round semantics), ``"rs_on_ss"`` or ``"rws_on_sp"`` (the
            Section 4 emulations on the step kernels), or ``"live"``
            (the asyncio cluster runtime with heartbeat-built P).
        algorithm: Registry key (see :mod:`repro.runtime.registry`).
        values: Initial value per process; fixes ``n``.
        t: Resilience parameter.
        model: ``"RS"`` or ``"RWS"`` for the rounds engine; ``None``
            for the emulations (implied by the engine).
        scenario: The round-model adversary (rounds engine only).
        pattern: The step-time failure pattern (emulations and live;
            the live engine reads crash times as units of 10 ms wall
            clock).
        max_rounds: Round horizon.
        seed: RNG seed for the randomized step schedulers (emulations
            only; the rounds engine is fully deterministic).
        params: Extra engine keyword arguments (``phi``, ``delta``,
            ``delivery_prob``, ...), stored as a sorted tuple of pairs
            so requests stay hashable.
        expect_disagreement: The documented outcome of this cell is a
            consensus violation (the paper's counterexamples); the
            ``--check`` oracle then *requires* the disagreement.
        check_consensus: Whether the consensus checker's verdict
            against the inputs is meaningful for this cell.  Off, the
            oracle is not given the initial values and tolerates
            violations: randomized RWS adversaries on non-WS algorithms
            may legitimately disagree, and atomic broadcast decides
            delivery sequences, which no input equals.
    """

    name: str
    engine: str
    algorithm: str
    values: tuple[Any, ...]
    t: int = 1
    model: str | None = None
    scenario: FailureScenario | None = None
    pattern: FailurePattern | None = None
    max_rounds: int = 4
    seed: int | None = None
    params: tuple[tuple[str, Any], ...] = ()
    expect_disagreement: bool = False
    check_consensus: bool = True

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.engine in ("rounds", "vector"):
            if self.scenario is None or self.model not in ("RS", "RWS"):
                raise ConfigurationError(
                    f"{self.name}: the {self.engine} engine needs a scenario "
                    "and model='RS'|'RWS'"
                )
        else:
            if self.pattern is None:
                raise ConfigurationError(
                    f"{self.name}: the emulation and live engines need a "
                    "failure pattern"
                )
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(
            self, "params", tuple(sorted(tuple(self.params)))
        )

    @property
    def n(self) -> int:
        return len(self.values)

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "engine": self.engine,
            "algorithm": self.algorithm,
            "values": list(self.values),
            "t": self.t,
            "model": self.model,
            "scenario": (
                scenario_to_dict(self.scenario)
                if self.scenario is not None
                else None
            ),
            "pattern": (
                pattern_to_dict(self.pattern)
                if self.pattern is not None
                else None
            ),
            "max_rounds": self.max_rounds,
            "seed": self.seed,
            "params": [list(pair) for pair in self.params],
            "expect_disagreement": self.expect_disagreement,
            "check_consensus": self.check_consensus,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionRequest":
        return cls(
            name=data["name"],
            engine=data["engine"],
            algorithm=data["algorithm"],
            values=tuple(data["values"]),
            t=data.get("t", 1),
            model=data.get("model"),
            scenario=(
                scenario_from_dict(data["scenario"])
                if data.get("scenario") is not None
                else None
            ),
            pattern=(
                pattern_from_dict(data["pattern"])
                if data.get("pattern") is not None
                else None
            ),
            max_rounds=data.get("max_rounds", 4),
            seed=data.get("seed"),
            params=tuple(
                (key, value) for key, value in data.get("params", ())
            ),
            expect_disagreement=data.get("expect_disagreement", False),
            check_consensus=data.get("check_consensus", True),
        )

    def cache_key(self) -> str:
        """A stable content hash identifying this cell's result.

        The key covers every field that influences execution plus the
        cache schema version — two requests with equal keys produce
        byte-identical results, and a semantic change to any engine
        must bump :data:`CACHE_SCHEMA_VERSION` to invalidate old
        entries wholesale.

        The hash is memoized on the (frozen) instance together with
        the bug injection it was computed under, so a changed
        ``REPRO_INJECT_BUG`` recomputes; the memo is not a dataclass
        field, so ``dataclasses.replace`` copies start without it.
        """
        # A mutated engine (REPRO_INJECT_BUG) computes different results
        # for the same request; keep its entries apart from the real
        # code's so mutation-testing runs never poison the cache.
        injected = active_injection()
        key = _memoized_key(self, injected)
        if key is not None:
            return key
        payload = {"v": CACHE_SCHEMA_VERSION, "request": self.to_dict()}
        if injected is not None:
            payload["injected_bug"] = injected
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_key_memo", (injected, key))
        return key


def _memoized_key(request: "ExecutionRequest", injected: str | None) -> str | None:
    """The key ``request`` remembers, if it was hashed under ``injected``."""
    memo = request.__dict__.get("_key_memo")
    return memo[1] if memo is not None and memo[0] == injected else None


def _dumps(value: Any) -> str:
    """One fragment of the canonical form, same dialect as the whole."""
    return json.dumps(value, sort_keys=True, default=repr)


def _scalar_fragment(value: Any) -> str:
    """``_dumps`` with the fixed-output scalars short-circuited — the
    per-cell fields are almost always bools/ints/None, and skipping the
    encoder for them is most of :func:`batch_cache_keys`'s win."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if type(value) is int:
        return str(value)
    return _dumps(value)


def _values_fragment(values: Sequence[Any]) -> str:
    if all(type(value) is int for value in values):
        # json.dumps's default list separator is ", ".
        return "[" + ", ".join(map(str, values)) + "]"
    return _dumps(list(values))


def batch_cache_keys(requests: Sequence["ExecutionRequest"]) -> list[str]:
    """:meth:`ExecutionRequest.cache_key` for many requests at once.

    Identical output to calling ``cache_key()`` per request, but the
    canonical JSON's *shared* fragments — dominated by the scenario —
    are serialized once per distinct ``(engine, algorithm, t, model,
    scenario, pattern, max_rounds, params)`` shape and only the
    per-cell fields (name, values, seed, consensus flags) are dumped
    and spliced per request.  The splice of each shape's first request
    is verified byte-for-byte against the full computation; any
    mismatch (or an active bug injection, whose marker changes the
    payload layout) falls back to the reference path for that shape.
    A thousand-cell batch over one adversary hashes the adversary once
    instead of a thousand times, which is what keeps the columnar
    engine's per-cell overhead flat.  Each key is left memoized on its
    request, and requests that already carry one are not hashed again.
    """
    keys: list[str] = [""] * len(requests)
    fragments: dict[tuple, tuple[str, ...] | None] = {}
    injected = active_injection()
    for index, request in enumerate(requests):
        key = _memoized_key(request, injected)
        if key is not None or injected is not None:
            keys[index] = key if key is not None else request.cache_key()
            continue
        pieces = _shape_pieces(request, fragments)
        if pieces is None:
            keys[index] = request.cache_key()
        else:
            canonical = _splice(pieces, _dumps(request.name), request)
            keys[index] = hashlib.sha256(
                canonical.encode("utf-8")
            ).hexdigest()
            # Seed the per-request memo: every later cache_key() on
            # this instance is a lookup, not a second hash.
            object.__setattr__(request, "_key_memo", (None, keys[index]))
    return keys


def work_keys(requests: Iterable["ExecutionRequest"]) -> Iterator[str]:
    """What each request asks an engine to *do*: its identity but for
    ``name``.

    Two requests with equal work keys are the same run under two
    labels — a deterministic engine produces the same trace, metrics
    and decisions for both, and the oracle the same verdict — so a
    sweep executes one of them (:func:`repro.runtime.sweep.execute_cells`).
    The key is the canonical form :meth:`ExecutionRequest.cache_key`
    hashes with the name left blank, spliced from the fragments
    :func:`batch_cache_keys` builds, and therefore in the cache key's
    JSON dialect, never Python equality: ``(0.0,)`` and ``(-0.0,)``,
    ``1`` and ``True`` compare equal and are different runs on the
    wire.  Equal scenarios held as distinct instances serialize alike
    and do share a key.

    A shape whose fragments fail verification against ``cache_key()``
    (an active bug injection changes the payload layout) yields the
    cache key itself, which no other cell of a space has: the cell
    runs alone.  Lazy on purpose — a key is ~600 bytes and a caller
    grouping a saturated stream keeps one per distinct run, not one
    per request; nothing is memoized on the request.
    """
    fragments: dict[tuple, tuple[str, ...] | None] = {}
    for request in requests:
        pieces = _shape_pieces(request, fragments)
        if pieces is None:
            yield request.cache_key()
        else:
            yield _splice(pieces, "", request)


def _shape_pieces(
    request: "ExecutionRequest",
    fragments: dict[tuple, tuple[str, ...] | None],
) -> tuple[str, ...] | None:
    """The static fragments of ``request``'s canonical form around its
    five per-cell fields, built once per shape in ``fragments``;
    ``None`` when they do not reproduce ``request.cache_key()``."""
    # Identity-keyed on the adversary objects.  Sharing is a
    # contract the space builders keep, not a fact of the type:
    # repro.runtime.space hands equal scenarios to its cells as one
    # instance, and only then does a shape repeat.  Distinct but
    # equal instances merely rebuild (and re-verify) the fragments,
    # which costs more than cache_key() per cell.  Keying on the
    # value instead would be wrong, not just slow: FailurePattern
    # is unhashable, and scenarios that differ in 1 vs True are
    # equal but serialize differently.
    shape = (
        request.engine,
        request.algorithm,
        request.t,
        request.model,
        id(request.scenario),
        id(request.pattern),
        request.max_rounds,
        request.params,
    )
    pieces = fragments.get(shape, _MISSING)
    if pieces is _MISSING:
        # json.dumps(sort_keys=True) fixes the request-dict key
        # order, so the canonical string factors into static
        # fragments around the five per-cell fields.
        pieces = (
            '{"request": {"algorithm": '
            + _dumps(request.algorithm)
            + ', "check_consensus": ',
            ', "engine": '
            + _dumps(request.engine)
            + ', "expect_disagreement": ',
            ', "max_rounds": '
            + _dumps(request.max_rounds)
            + ', "model": '
            + _dumps(request.model)
            + ', "name": ',
            ', "params": '
            + _dumps([list(pair) for pair in request.params])
            + ', "pattern": '
            + _dumps(
                pattern_to_dict(request.pattern)
                if request.pattern is not None
                else None
            )
            + ', "scenario": '
            + _dumps(
                scenario_to_dict(request.scenario)
                if request.scenario is not None
                else None
            )
            + ', "seed": ',
            ', "t": ' + _dumps(request.t) + ', "values": ',
            '}, "v": ' + _dumps(CACHE_SCHEMA_VERSION) + "}",
        )
        if (
            hashlib.sha256(
                _splice(pieces, _dumps(request.name), request).encode("utf-8")
            ).hexdigest()
            != request.cache_key()
        ):  # canonical-format drift guard; always taken under injection
            pieces = None
        fragments[shape] = pieces
    return pieces


def _splice(
    pieces: tuple[str, ...], name: str, request: "ExecutionRequest"
) -> str:
    """Interleave a shape's static fragments with one cell's fields;
    ``name`` is the name's fragment (empty for a work key)."""
    return "".join(
        (
            pieces[0],
            _scalar_fragment(request.check_consensus),
            pieces[1],
            _scalar_fragment(request.expect_disagreement),
            pieces[2],
            name,
            pieces[3],
            _scalar_fragment(request.seed),
            pieces[4],
            _values_fragment(request.values),
            pieces[5],
        )
    )


_MISSING = object()


@dataclass
class ExecutionResult:
    """What one executed cell produced.

    Attributes:
        name: The request's cell label.
        request_key: The producing request's :meth:`cache_key`.
        events: The structured trace, recorded under the deterministic
            logical clock (timestamps restart at 1.0 per cell, so the
            trace is independent of which worker ran it).  A plain list
            for most engines; vector-kernel cells (and store hits that
            cite a template) hold a
            :class:`~repro.obs.template.TemplateEvents` instead — the
            group's shared :attr:`template` plus this cell's decide
            values (:attr:`holes`) — which builds the list only when an
            event is read.
        metrics: The raw :meth:`~repro.obs.MetricsRegistry.state` of
            the cell's metrics registry.
        decisions: ``pid -> (round, value)`` for deciding processes.
        latency: Rounds until all correct processes decided, ``None``
            for incomplete runs.
        num_rounds: Rounds the engine executed.
        extra: Engine-specific structured facts about the run.  The
            emulation harnesses store the *induced* round-level scenario
            here (``extra["induced_scenario"]``,
            :func:`~repro.serialize.scenario_to_dict` form), which is
            what lets the differential fuzzer build the rounds-engine
            twin of an emulation cell without re-running it.
        cached: True when this result was served from the on-disk
            cache instead of executed (never serialized as True).
    """

    name: str
    request_key: str
    events: Sequence[Event] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    decisions: dict[int, tuple[int, Any]] = field(default_factory=dict)
    latency: int | None = None
    num_rounds: int = 0
    extra: dict[str, Any] = field(default_factory=dict)
    cached: bool = False

    @property
    def template(self) -> TraceTemplate | None:
        """The shared trace template, ``None`` for inline events."""
        return getattr(self.events, "template", None)

    @property
    def holes(self) -> tuple[Any, ...]:
        """This cell's decide values (empty without a template)."""
        return getattr(self.events, "holes", ())

    def outcome_dict(self) -> dict[str, Any]:
        """The JSON-ready fields besides identity, trace and metrics."""
        return {
            "decisions": {
                str(pid): [entry[0], entry[1]]
                for pid, entry in sorted(self.decisions.items())
            },
            "latency": self.latency,
            "num_rounds": self.num_rounds,
            "extra": self.extra,
        }

    def to_dict(self) -> dict[str, Any]:
        """The wire form: always inline events, whatever :attr:`template`."""
        return {
            "name": self.name,
            "request_key": self.request_key,
            "events": [event.to_dict() for event in self.events],
            "metrics": self.metrics,
            **self.outcome_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionResult":
        return cls(
            name=data["name"],
            request_key=data["request_key"],
            events=[Event.from_dict(entry) for entry in data["events"]],
            metrics=dict(data.get("metrics", {})),
            decisions={
                int(pid): (entry[0], entry[1])
                for pid, entry in data.get("decisions", {}).items()
            },
            latency=data.get("latency"),
            num_rounds=data.get("num_rounds", 0),
            extra=dict(data.get("extra", {})),
        )
