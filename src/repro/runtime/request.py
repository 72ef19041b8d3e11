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
deterministic logical clock), the raw metrics state folded from it,
and the run's decisions — enough for the trace oracle, the merge step,
and the latency aggregations, without re-executing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.failures.pattern import FailurePattern
from repro.inject import active_injection
from repro.obs.events import Event
from repro.obs.template import TemplateEvents, TraceTemplate, factor
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

#: The engines a request may target.  ``"vector"`` is a second name for
#: ``"rounds"``: the same executor, byte-identical traces, distinct cache
#: keys (the engine name is part of the request).  It stays because the
#: ledger's campaigns and pinned run ids name it (ROADMAP 8(h)).
ENGINES = ("rounds", "rs_on_ss", "rws_on_sp", "vector")

#: The engine names that run the RS/RWS round executor.
ROUND_ENGINES = ("rounds", "vector")


@dataclass(frozen=True)
class ExecutionRequest:
    """One execution cell of a scenario space.

    Attributes:
        name: Human-readable cell label (unique within a space).
        engine: ``"rounds"`` (the RS/RWS round executor; ``"vector"``
            is a second name for it), ``"rs_on_ss"`` or ``"rws_on_sp"``
            (the Section 4 emulations on the step kernels).
        algorithm: Registry key (see :mod:`repro.runtime.registry`).
        values: Initial value per process; fixes ``n``.
        t: Resilience parameter.
        model: ``"RS"`` or ``"RWS"`` for the rounds engine; ``None``
            for the emulations (implied by the engine).
        scenario: The round-model adversary (rounds engine only).
        pattern: The step-time failure pattern (emulations only).
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
            may legitimately disagree.
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
        if self.engine in ROUND_ENGINES:
            if self.scenario is None or self.model not in ("RS", "RWS"):
                raise ConfigurationError(
                    f"{self.name}: the {self.engine} engine needs a scenario "
                    "and model='RS'|'RWS'"
                )
        else:
            if self.pattern is None:
                raise ConfigurationError(
                    f"{self.name}: the emulation engines need a failure "
                    "pattern"
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
        entries wholesale.  What is hashed is the request's one
        canonical form (:func:`_canonical_form`) with its name filled
        in; :meth:`work_key` is the same form without it.

        The hash is memoized on the (frozen) instance together with
        the bug injection it was computed under, so a changed
        ``REPRO_INJECT_BUG`` recomputes; the memo is not a dataclass
        field, so ``dataclasses.replace`` copies (and :meth:`renamed`
        twins) start without it.
        """
        # A mutated engine (REPRO_INJECT_BUG) computes different results
        # for the same request; the canonical form names the injection,
        # so mutation-testing runs never poison the real code's cache.
        injected = active_injection()
        memo = self.__dict__.get("_key_memo")
        if memo is not None and memo[0] == injected:
            return memo[1]
        head, tail = self._halves(injected)
        canonical = "".join((head, _fragment(self.name), tail))
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_key_memo", (injected, key))
        return key

    def work_key(self) -> str:
        """What this request asks an engine to *do*: the canonical form
        :meth:`cache_key` hashes, with the name slot left empty
        (``"name": ""``).

        Two requests with equal work keys are the same run under two
        labels — a deterministic engine produces the same trace,
        metrics and decisions for both, and the oracle the same verdict
        — so a sweep executes one of them
        (:func:`repro.runtime.sweep.execute_cells`).  Being the cache
        key's string, it speaks JSON, never Python equality: ``(0.0,)``
        and ``(-0.0,)``, ``1`` and ``True`` compare equal and are
        different runs on the wire, while equal scenarios held as
        distinct instances serialize alike and share a key.  An active
        bug injection is part of the form, so a mutant's equal cells
        share a run too, and never one of the real code's.

        Both keys are built from the form's two halves around the name
        slot, memoized per injection on first use and shared by a
        request's :meth:`renamed` twins: the space builders hand a run's
        every further cell out as a twin of its first, so the form is
        built once per run, and a twin's keys cost a concatenation and,
        for :meth:`cache_key`, one SHA-256.
        """
        head, tail = self._halves(active_injection())
        return "".join((head, '""', tail))

    def renamed(self, name: str) -> "ExecutionRequest":
        """This request under another ``name``: a *twin*, equal to it in
        every other field and sharing its canonical-form memo (see
        :meth:`work_key`), built without the constructor's checks,
        which this request already passed."""
        twin = object.__new__(type(self))
        fields = twin.__dict__
        fields.update(self.__dict__)
        fields.pop("_key_memo", None)
        fields["name"] = name
        fields["_form_memo"] = self._forms()
        return twin

    def _forms(self) -> dict[str | None, tuple[str, str]]:
        """The canonical-form memo: injection -> (head, tail), shared
        with every :meth:`renamed` twin.  Created empty on first use and
        filled by :meth:`_halves`, so a space that nobody keys builds no
        form."""
        forms = self.__dict__.get("_form_memo")
        if forms is None:
            forms = self.__dict__["_form_memo"] = {}
        return forms

    def _halves(self, injected: str | None) -> tuple[str, str]:
        forms = self._forms()
        halves = forms.get(injected)
        if halves is None:
            halves = forms[injected] = _canonical_form(self, injected)
        return halves


def twin_group(request: ExecutionRequest) -> int:
    """An identity ``request`` shares with exactly the requests it was
    :meth:`~ExecutionRequest.renamed` from or to: the id of their common
    canonical-form memo (created empty if it has none yet)."""
    return id(request._forms())


#: ``json.dumps(value, sort_keys=True, default=repr)`` without building
#: an encoder per call: the dialect of the canonical form and of every
#: fragment of it.
_encode = json.JSONEncoder(sort_keys=True, default=repr).encode


def _fragment(value: Any) -> str:
    """``value``'s fragment of the canonical form.  The per-cell fields
    are almost always bools, ints or ``None``, whose JSON is fixed, so
    they skip the encoder."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if type(value) is int:
        return str(value)
    return _encode(value)


def _values_fragment(values: tuple[Any, ...]) -> str:
    if all(type(value) is int for value in values):
        # The encoder's list separator is ", ".
        return "[" + ", ".join(map(str, values)) + "]"
    return _encode(values)


def _scenario_fragment(scenario: FailureScenario) -> str:
    """The scenario's fragment, memoized on the instance.

    Correct however builders share instances — a scenario is frozen
    and every field is a tuple or a frozenset of frozen events — so
    sharing only decides how often it is serialized: once per instance.
    """
    fragment = scenario.__dict__.get("_canonical_json")
    if fragment is None:
        fragment = _encode(scenario_to_dict(scenario))
        object.__setattr__(scenario, "_canonical_json", fragment)
    return fragment


def _canonical_form(
    request: ExecutionRequest, injected: str | None
) -> tuple[str, str]:
    """The one definition of a request's canonical JSON, as the two
    halves around its name slot: ``head + name + tail`` is the form
    with ``name`` (a JSON fragment) in that slot.

    Byte for byte ``json.dumps({"v": CACHE_SCHEMA_VERSION, "request":
    request.to_dict()}, sort_keys=True, default=repr)``, plus an
    ``"injected_bug"`` entry under an active injection.  ``sort_keys``
    fixes where every key goes, so the string is the fixed keys
    interleaved with one fragment per field (tuples encode as the
    lists ``to_dict`` spells).  A :class:`FailurePattern` is encoded
    per form: its ``crash_times`` is a plain dict.
    """
    scenario, pattern = request.scenario, request.pattern
    head = "".join(
        (
            "{"
            if injected is None
            else '{"injected_bug": ' + _encode(injected) + ", ",
            '"request": {"algorithm": ',
            _fragment(request.algorithm),
            ', "check_consensus": ',
            _fragment(request.check_consensus),
            ', "engine": ',
            _fragment(request.engine),
            ', "expect_disagreement": ',
            _fragment(request.expect_disagreement),
            ', "max_rounds": ',
            _fragment(request.max_rounds),
            ', "model": ',
            _fragment(request.model),
            ', "name": ',
        )
    )
    tail = "".join(
        (
            ', "params": ',
            _encode(request.params) if request.params else "[]",
            ', "pattern": ',
            "null" if pattern is None else _encode(pattern_to_dict(pattern)),
            ', "scenario": ',
            "null" if scenario is None else _scenario_fragment(scenario),
            ', "seed": ',
            _fragment(request.seed),
            ', "t": ',
            _fragment(request.t),
            ', "values": ',
            _values_fragment(request.values),
            '}, "v": ',
            _fragment(CACHE_SCHEMA_VERSION),
            "}",
        )
    )
    return head, tail


@dataclass
class ExecutionResult:
    """What one executed cell produced.

    The run's :attr:`metrics` are not a field: they are a fold over
    the trace, made once per template.

    Attributes:
        name: The request's cell label.
        request_key: The producing request's :meth:`cache_key`.
        events: The structured trace, recorded under the deterministic
            logical clock (timestamps restart at 1.0 per cell, so the
            trace is independent of which worker ran it).  Always a
            :class:`~repro.obs.template.TemplateEvents` — a value-free
            :attr:`template` plus this cell's decide values
            (:attr:`holes`), built into a list only when an event is
            read; a plain sequence is factored on construction.
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
    decisions: dict[int, tuple[int, Any]] = field(default_factory=dict)
    latency: int | None = None
    num_rounds: int = 0
    extra: dict[str, Any] = field(default_factory=dict)
    cached: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.events, TemplateEvents):
            self.events = factor(self.events)

    @property
    def template(self) -> TraceTemplate:
        """The value-free part of the trace (never ``None``)."""
        return self.events.template

    @property
    def holes(self) -> tuple[Any, ...]:
        """This cell's decide values, aligned with ``template.positions``."""
        return self.events.holes

    @property
    def metrics(self) -> dict[str, Any]:
        """The raw :meth:`~repro.obs.MetricsRegistry.state` of the run,
        folded from its trace (:func:`~repro.obs.metrics.metrics_of`).
        The template's own mapping, shared by every cell citing it:
        read-only."""
        return self.template.metrics

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

    @staticmethod
    def outcome_from_dict(data: Mapping[str, Any]) -> dict[str, Any]:
        """Constructor keywords for the fields :meth:`outcome_dict` wrote."""
        return {
            "decisions": {
                int(pid): (entry[0], entry[1])
                for pid, entry in data.get("decisions", {}).items()
            },
            "latency": data.get("latency"),
            "num_rounds": data.get("num_rounds", 0),
            "extra": dict(data.get("extra", {})),
        }
