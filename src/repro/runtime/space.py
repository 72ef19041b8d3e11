"""Canonical enumeration of scenario spaces.

The paper's quantitative statements — ``lat``/``Lat``/``Λ`` and the
RS/RWS gap in ``Λ`` (Theorem 5.2 vs Section 5.3) — quantify over *sets
of runs*.  A :class:`ScenarioSpace` reifies such a set as an ordered
tuple of :class:`~repro.runtime.request.ExecutionRequest` cells, built
three ways:

* **explicit lists** — any caller-assembled requests;
* **named cells** — :data:`NAMED_CELLS`, the one table where the
  paper's named runs (the scenarios of :mod:`repro.workloads.scenarios`
  bound to an algorithm, inputs and a model) are written; the
  registered spaces and the CLI's ``show`` / ``trace`` / ``metrics`` /
  ``check`` / ``replay`` both draw from it;
* **seeded random streams** — ``random_scenario`` draws where every
  cell gets a *derived* seed (a stable hash of the stream seed and the
  cell index), so a stream is reproducible cell-by-cell and
  independent of how cells are distributed over workers.

**One adversary, one object.**  Every builder in this module hands
equal scenarios (:class:`~repro.rounds.scenario.FailureScenario`) to
its cells as a single instance (a dict local to the builder call,
never a module table).  That is a speed property only: a request's
canonical form memoizes the scenario's fragment on the instance
(:meth:`~repro.runtime.request.ExecutionRequest.cache_key`), so a
shared scenario is serialized once and a space that breaks the rule
stays correct and merely serializes per cell;
``tests/test_identity_contract.py`` counts it for every registered
space.

Registered spaces (:func:`space_by_name`):

* ``oracle-sweep`` — the chaos sweep behind ``tests/test_oracle_sweep``:
  every named consensus cell, randomized adversaries in both round
  models, and both emulations.
* ``e10-lambda`` — the E10 Λ sweep: every failure-free run (all binary
  initial configurations) of the safe RWS algorithms (``Λ >= 2`` there,
  Section 5.3) and of A1 in RS (``Λ(A1) = 1``, Theorem 5.2); the
  per-algorithm worst case over this space *is* ``Λ = Lat(A, 0)``.
"""

from __future__ import annotations

import hashlib
import inspect
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.failures.pattern import FailurePattern
from repro.rounds.enumeration import (
    all_value_assignments,
    build_scenario,
    draw_scenario,
)
from repro.rounds.scenario import FailureScenario
from repro.runtime.request import ExecutionRequest, twin_group
from repro.workloads import (
    a1_rws_disagreement,
    adversarial_split,
    crash_mid_broadcast,
    decide_then_crash_pending,
    failure_free,
    floodset_rws_violation,
    initially_dead_t,
    unanimous,
)

def derived_seed(base: int, index: int) -> int:
    """A deterministic per-cell seed from a stream seed and cell index.

    Stable across Python versions and processes (unlike ``hash``), so
    random streams shard over a pool without any seed bookkeeping.
    """
    digest = hashlib.sha256(f"{base}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ScenarioSpace:
    """An ordered, immutable set of execution cells.

    Order is semantic: merged sweep traces and aggregated metrics
    follow space order, which is what makes parallel execution
    byte-compatible with serial execution.
    """

    name: str
    requests: tuple[ExecutionRequest, ...]

    def __post_init__(self) -> None:
        counts = Counter(request.name for request in self.requests)
        if len(counts) < len(self.requests):
            duplicates = sorted(n for n, c in counts.items() if c > 1)
            raise ConfigurationError(
                f"space {self.name!r} has duplicate cell names: {duplicates}"
            )

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[ExecutionRequest]:
        return iter(self.requests)

    # -- builders -------------------------------------------------------------

    @classmethod
    def explicit(
        cls, name: str, requests: Sequence[ExecutionRequest]
    ) -> "ScenarioSpace":
        return cls(name=name, requests=tuple(requests))

    @classmethod
    def random_rounds(
        cls,
        name: str,
        *,
        algorithm: str,
        model: str,
        n: int,
        t: int = 1,
        count: int = 25,
        seed: int = 42,
        max_round: int = 3,
        max_rounds: int = 4,
        check_consensus: bool = False,
        interned: dict[FailureScenario, FailureScenario] | None = None,
    ) -> "ScenarioSpace":
        """A seeded stream of ``count`` randomized round-model cells.

        Cell ``i`` draws its scenario as
        :func:`~repro.rounds.enumeration.random_scenario` would, seeded
        with ``derived_seed(seed, i)`` — the stream's content depends
        only on ``(seed, count)``, never on execution order.  Randomized
        adversaries can legitimately break consensus for non-WS
        algorithms in RWS, so consensus checking is off by default and
        only the model invariants are enforced.

        A stream draws few distinct adversaries (109 in 2000 cells at
        ``n = 4``), so a cell costs a draw, not a scenario: one
        ``Random`` is reseeded per cell (the state ``Random(x)`` starts
        in), :func:`~repro.rounds.enumeration.draw_scenario` makes the
        random choices, and only a draw not seen before in this call is
        built and validated
        (:func:`~repro.rounds.enumeration.build_scenario`).  Equal
        scenarios become *one* object: ``interned`` maps each scenario
        to the instance its cells share.  It is local to this call
        unless a builder joining several streams into one space passes
        its own.  A cell that repeats an earlier adversary is built as
        that cell's twin
        (:meth:`~repro.runtime.request.ExecutionRequest.renamed`), so
        the run's canonical form is built once, for all of its cells.
        """
        if interned is None:
            interned = {}
        allow_pending = model == "RWS"
        rng = random.Random()
        built: dict[Any, FailureScenario] = {}
        # The first cell of each adversary, by scenario instance: every
        # other field is the stream's, so a cell whose adversary was
        # drawn before is that cell's twin (ExecutionRequest.renamed).
        runs: dict[int, ExecutionRequest] = {}
        requests = []
        for index in range(count):
            rng.seed(derived_seed(seed, index))
            draw = draw_scenario(
                n, t, max_round=max_round, allow_pending=allow_pending, rng=rng
            )
            scenario = built.get(draw)
            if scenario is None:
                scenario = build_scenario(
                    n, t, draw, allow_pending=allow_pending
                )
                scenario = built[draw] = interned.setdefault(
                    scenario, scenario
                )
            cell = f"{name}-{index:03d}"
            first = runs.get(id(scenario))
            if first is None:
                first = runs[id(scenario)] = ExecutionRequest(
                    name=cell,
                    engine="rounds",
                    algorithm=algorithm,
                    values=adversarial_split(n),
                    t=t,
                    model=model,
                    scenario=scenario,
                    max_rounds=max_rounds,
                    check_consensus=check_consensus,
                )
                requests.append(first)
            else:
                requests.append(first.renamed(cell))
        return cls(name=name, requests=tuple(requests))


# ---------------------------------------------------------------------------
# Registered spaces
# ---------------------------------------------------------------------------


class NamedCell(NamedTuple):
    """One of the paper's named runs: what it shows, and the cell."""

    blurb: str
    request: ExecutionRequest


def _named_cells() -> dict[str, NamedCell]:
    n = 3
    split = adversarial_split(n)
    cells: dict[str, NamedCell] = {}
    interned: dict[FailureScenario, FailureScenario] = {}

    def cell(
        name: str,
        algorithm: str,
        scenario: FailureScenario,
        model: str,
        blurb: str,
        **overrides: Any,
    ) -> None:
        fields = {"values": split, "t": 1, "max_rounds": 4, **overrides}
        scenario = interned.setdefault(scenario, scenario)
        cells[name] = NamedCell(
            blurb,
            ExecutionRequest(
                name=name,
                engine="rounds",
                algorithm=algorithm,
                model=model,
                scenario=scenario,
                **fields,
            ),
        )

    cell(
        "failure-free-rs", "floodset", failure_free(n), "RS",
        "FloodSet with no failure in RS: everyone decides at round t+1",
    )
    cell(
        "failure-free-rws", "floodset", failure_free(n), "RWS",
        "the same failure-free run in RWS: nothing is pending",
    )
    cell(
        "initially-dead", "f-opt", initially_dead_t(n, 1), "RS",
        "t initial crashes let F_OptFloodSet decide at round 1",
    )
    cell(
        "mid-broadcast-rs", "floodset", crash_mid_broadcast(n), "RS",
        "p1 crashes mid-broadcast in round 1; FloodSet still agrees in RS",
    )
    cell(
        "mid-broadcast-copt", "c-opt", crash_mid_broadcast(n), "RS",
        "unanimous inputs: C_OptFloodSet decides at round 1 despite the "
        "mid-broadcast crash",
        values=unanimous(n),
    )
    cell(
        "floodset-rws", "floodset", floodset_rws_violation(n), "RWS",
        "plain FloodSet split by a pending value in the decision round",
        expect_disagreement=True,
    )
    cell(
        "a1-rws", "a1", a1_rws_disagreement(n), "RWS",
        "the Section 5.3 disagreement: p1 decides on its own pending "
        "broadcast",
        expect_disagreement=True,
    )
    # FloodSetWS *repairs* the decide-then-crash run: the oracle must
    # not require a disagreement, only tolerate one (the cell exercises
    # the adversary move, not a documented violation).
    cell(
        "decide-then-crash", "floodset-ws", decide_then_crash_pending(n), "RWS",
        "the Section 5.3 adversary move against FloodSetWS, whose halt "
        "set repairs it",
        check_consensus=False,
    )
    return cells


#: The paper's named runs, each written once: the ``oracle-sweep``
#: workload cells, in sweep order.
NAMED_CELLS: dict[str, NamedCell] = _named_cells()

#: Other names a cell answers to: the CLI's historical ``fopt-fast`` and
#: the long forms the docs and the paper's prose use.
CELL_ALIASES = {
    "fopt-fast": "initially-dead",
    "floodset-rws-violation": "floodset-rws",
    "a1-rws-disagreement": "a1-rws",
}


def named_cell(name: str) -> NamedCell:
    """Look a named run up by name or alias; unknown names raise with
    the catalogue."""
    cell = NAMED_CELLS.get(CELL_ALIASES.get(name, name))
    if cell is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from "
            f"{sorted(NAMED_CELLS) + sorted(CELL_ALIASES)}"
        )
    return cell


def _emulation_cells() -> list[ExecutionRequest]:
    """One cell per step-kernel emulation, seeds as in the oracle sweep."""
    n = 3
    return [
        ExecutionRequest(
            name="emulation-rs-on-ss",
            engine="rs_on_ss",
            algorithm="floodset",
            values=adversarial_split(n),
            t=1,
            pattern=FailurePattern.with_crashes(n, {0: 7}),
            max_rounds=3,
            seed=3,
            check_consensus=False,
        ),
        ExecutionRequest(
            name="emulation-rws-on-sp",
            engine="rws_on_sp",
            algorithm="floodset",
            values=adversarial_split(n),
            t=1,
            pattern=FailurePattern.with_crashes(n, {0: 5}),
            max_rounds=2,
            seed=11,
            params=(
                ("max_detection_delay", 2),
                ("delivery_prob", 0.15),
                ("max_age", 80),
            ),
            check_consensus=False,
        ),
    ]


def oracle_sweep_space(count: int = 10, seed: int = 42) -> ScenarioSpace:
    """The chaos sweep: workloads + random adversaries + emulations."""
    requests = [cell.request for cell in NAMED_CELLS.values()]
    # One table across the named cells and both streams: the RS and RWS
    # draws overlap wherever the RWS adversary left nothing pending.
    interned = {request.scenario: request.scenario for request in requests}
    for model, stream_seed in (("RS", seed), ("RWS", seed + 1)):
        requests.extend(
            random_space(model, count, stream_seed, interned).requests
        )
    requests.extend(_emulation_cells())
    return ScenarioSpace(name="oracle-sweep", requests=tuple(requests))


def e10_lambda_space() -> ScenarioSpace:
    """The E10 Λ sweep: all failure-free runs of the safe algorithms.

    ``Λ(A) = Lat(A, 0)`` is the worst-case latency over failure-free
    runs, quantified over every initial configuration.  This space is
    exactly that run set for the three safe RWS algorithms (where the
    paper proves ``Λ >= 2``) and for A1 in RS (where ``Λ = 1``).
    """
    n = 3
    scenario = failure_free(n)
    cells: list[ExecutionRequest] = []
    algorithms = (
        ("floodset-ws", "RWS"),
        ("c-opt-ws", "RWS"),
        ("f-opt-ws", "RWS"),
        ("a1", "RS"),
    )
    for algorithm, model in algorithms:
        for values in all_value_assignments(n):
            tag = "".join(str(v) for v in values)
            cells.append(
                ExecutionRequest(
                    name=f"{algorithm}-{model.lower()}-ff-{tag}",
                    engine="rounds",
                    algorithm=algorithm,
                    values=values,
                    t=1,
                    model=model,
                    scenario=scenario,
                    max_rounds=4,
                )
            )
    return ScenarioSpace(name="e10-lambda", requests=tuple(cells))


def random_space(
    model: str,
    count: int = 25,
    seed: int = 42,
    interned: dict[FailureScenario, FailureScenario] | None = None,
) -> ScenarioSpace:
    """A pure random-adversary stream in one round model."""
    return ScenarioSpace.random_rounds(
        f"random-{model.lower()}",
        algorithm="floodset",
        model=model,
        n=4,
        count=count,
        seed=seed,
        interned=interned,
    )


def vectorized_space(space: ScenarioSpace) -> ScenarioSpace:
    """The same space with every rounds cell renamed ``engine="vector"``.

    What ``repro sweep --engine vector`` runs: the same executor under
    its second name (kept because the ledger's campaigns name it,
    ROADMAP 8(h)).  Emulation cells pass through untouched.
    Cell names are preserved — the engine field is part of every cache
    key, so the rewritten cells cache separately from their rounds
    twins while the merged traces stay byte-identical.  Cells built as
    twins (:meth:`~repro.runtime.request.ExecutionRequest.renamed`)
    stay twins of one another.
    """
    # The first vector cell per twin group of the input; the group's
    # other cells become its twins.
    firsts: dict[int, ExecutionRequest] = {}
    requests = []
    for request in space.requests:
        if request.engine == "rounds":
            group = twin_group(request)
            first = firsts.get(group)
            if first is None:
                request = firsts[group] = _on_vector(request)
            else:
                request = first.renamed(request.name)
        requests.append(request)
    return ScenarioSpace(name=space.name, requests=tuple(requests))


def _on_vector(request: ExecutionRequest) -> ExecutionRequest:
    # The constructor, not dataclasses.replace, which walks fields()
    # and builds a kwargs dict per call; a space may hold thousands.
    return ExecutionRequest(
        name=request.name,
        engine="vector",
        algorithm=request.algorithm,
        values=request.values,
        t=request.t,
        model=request.model,
        scenario=request.scenario,
        pattern=request.pattern,
        max_rounds=request.max_rounds,
        seed=request.seed,
        params=request.params,
        expect_disagreement=request.expect_disagreement,
        check_consensus=request.check_consensus,
    )


#: Name → factory.  A factory's keyword parameters are the options the
#: space takes — ``count`` and ``seed`` for the stream-based spaces,
#: neither for the fixed ``e10-lambda`` — and :func:`space_by_name`
#: refuses any other.
SPACE_FACTORIES: dict[str, Callable[..., ScenarioSpace]] = {
    "oracle-sweep": lambda count=10, seed=42: oracle_sweep_space(count, seed),
    "e10-lambda": e10_lambda_space,
    "random-rs": lambda count=25, seed=42: random_space("RS", count, seed),
    "random-rws": lambda count=25, seed=42: random_space("RWS", count, seed),
}


def space_by_name(
    name: str, *, count: int | None = None, seed: int | None = None
) -> ScenarioSpace:
    """Build a registered space; unknown names raise with the
    catalogue, and so do an option the space does not take (it would
    be silently ignored) and a negative ``count`` (``range`` would read
    it as an empty stream, and an empty space passes every check)."""
    factory = SPACE_FACTORIES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown scenario space {name!r}; choose from "
            f"{sorted(SPACE_FACTORIES)}"
        )
    takes = inspect.signature(factory).parameters
    options = {
        option: value
        for option, value in (("count", count), ("seed", seed))
        if value is not None
    }
    for option in options:
        if option not in takes:
            raise ConfigurationError(
                f"space {name!r} takes no {option}; its options: "
                f"{', '.join(takes) or 'none'}"
            )
    if count is not None and count < 0:
        raise ConfigurationError(
            f"space {name!r}: count must be >= 0, got {count}"
        )
    return factory(**options)
