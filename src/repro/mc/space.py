"""The checker's frontiers as ordinary scenario spaces.

The model checker never grows a private execution path: each frontier
— the reduced leaf schedules of :func:`repro.mc.explore.explore`, the
failure-free Λ matrix, or the emulation crash-time grid — is reified
as a :class:`~repro.runtime.space.ScenarioSpace` and executed through
the same :class:`~repro.runtime.sweep.SweepRunner` that powers ``repro
sweep`` and ``repro fuzz``.  That buys, for free: result caching,
equal cells run once and run-directory resume.

Scenario instances are *interned* across cells: leaves that realize an
equal adversary share one ``FailureScenario`` object, so its fragment of
the requests' canonical form is serialized once (the memo lives on the
instance).

Frontiers also save/load as JSON (``save_frontier``/``load_frontier``)
so fuzz campaigns can seed from deep reachable states
(:func:`repro.fuzz.strategies.mc_frontier_cases`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.failures.pattern import FailurePattern
from repro.mc.explore import Exploration, ExploreStats, Leaf
from repro.rounds.enumeration import all_value_assignments
from repro.rounds.scenario import FailureScenario
from repro.runtime.request import ROUND_ENGINES, ExecutionRequest
from repro.runtime.space import ScenarioSpace
from repro.serialize import scenario_from_dict, scenario_to_dict
from repro.workloads import failure_free

#: Step-kernel engines checked over a crash-time grid instead of the
#: exhaustive schedule frontier (their adversary is wall-clock timing,
#: which no bounded schedule enumeration closes).
GRID_ENGINES = ("rs_on_ss", "rws_on_sp")

#: File format marker of saved frontiers.
FRONTIER_KIND = "mc-frontier"
FRONTIER_SCHEMA = 1

#: Fixed seed of the emulation grid cells — the grid is a deterministic
#: sample, and its verdicts say so (scope "grid", never "exhaustive").
GRID_SEED = 7

#: Crash times (step units) of the emulation grid.
GRID_TIMES = (0, 2, 5, 9)


def _intern_scenarios(leaves: list[Leaf]) -> list[FailureScenario]:
    """One shared instance per distinct adversary, in leaf order."""
    by_form: dict[str, FailureScenario] = {}
    interned: list[FailureScenario] = []
    for leaf in leaves:
        form = json.dumps(scenario_to_dict(leaf.scenario), sort_keys=True)
        interned.append(by_form.setdefault(form, leaf.scenario))
    return interned


def frontier_space(
    exploration: Exploration,
    *,
    engine: str = "rounds",
) -> ScenarioSpace:
    """The exploration's leaf schedules as an executable space.

    Cell ``i`` re-runs leaf ``i``'s complete schedule on the real
    engine; the checker cross-checks each cell's decisions against the
    leaf's predicted ones, so the exploration's own stepping is itself
    under differential test on every run.
    """
    if engine not in ROUND_ENGINES:
        raise ConfigurationError(
            f"schedule frontiers run on {ROUND_ENGINES}, not {engine!r}"
        )
    scenarios = _intern_scenarios(exploration.leaves)
    requests = tuple(
        ExecutionRequest(
            name=f"mc-{index:05d}",
            engine=engine,
            algorithm=exploration.algorithm,
            values=leaf.values,
            t=exploration.t,
            model=exploration.model,
            scenario=scenario,
            max_rounds=exploration.horizon,
            check_consensus=False,
        )
        for index, (leaf, scenario) in enumerate(
            zip(exploration.leaves, scenarios)
        )
    )
    return ScenarioSpace(
        name=f"mc-{exploration.algorithm}-{exploration.model.lower()}",
        requests=requests,
    )


def lambda_space(
    algorithm: str,
    *,
    n: int,
    t: int,
    model: str,
    horizon: int,
    engine: str = "rounds",
) -> ScenarioSpace:
    """Every failure-free run: the exact domain of ``Λ(A) = Lat(A, 0)``.

    Failure-free runs admit no adversary choice at all (no crashes, and
    weak round synchrony forbids pending without a crash), so this
    space *is* the full run set the paper's Λ quantifies over — one
    cell per initial configuration.
    """
    scenario = failure_free(n)
    requests = tuple(
        ExecutionRequest(
            name=f"mc-lambda-{''.join(str(v) for v in values)}",
            engine=engine,
            algorithm=algorithm,
            values=values,
            t=t,
            model=model,
            scenario=scenario,
            max_rounds=horizon,
            check_consensus=False,
        )
        for values in all_value_assignments(n)
    )
    return ScenarioSpace(
        name=f"mc-lambda-{algorithm}-{model.lower()}",
        requests=requests,
    )


def grid_space(
    algorithm: str,
    *,
    n: int,
    t: int,
    horizon: int,
    engine: str,
) -> ScenarioSpace:
    """Emulation-engine checking grid: assignments × crash timings.

    Step-kernel adversaries are wall-clock schedules, so exhaustion is
    out of reach; the grid is the deterministic sample the checker runs
    instead (fixed seed, crash-free plus every single-victim timing),
    and its verdicts carry scope ``"grid"`` rather than
    ``"exhaustive"``.  It is exactly the surface the planted-bug
    refutations need: an injected emulation defect breaks agreement on
    some grid cell, and the emitted witness replays through the fuzz
    oracles' emulation-twin differential.
    """
    patterns: list[FailurePattern] = [FailurePattern.crash_free(n)]
    if t >= 1:
        patterns.extend(
            FailurePattern.with_crashes(n, {pid: time})
            for pid in range(n)
            for time in GRID_TIMES
        )
    max_rounds = horizon if engine == "rs_on_ss" else min(horizon, t + 1)
    params = (
        (("delta", 1), ("phi", 1))
        if engine == "rs_on_ss"
        else (("delivery_prob", 0.2), ("max_age", 80), ("max_detection_delay", 2))
    )
    requests = tuple(
        ExecutionRequest(
            name=(
                f"mc-grid-{''.join(str(v) for v in values)}-{index:03d}"
            ),
            engine=engine,
            algorithm=algorithm,
            values=values,
            t=t,
            pattern=pattern,
            max_rounds=max_rounds,
            seed=GRID_SEED,
            params=params,
            check_consensus=False,
        )
        for values in all_value_assignments(n)
        for index, pattern in enumerate(patterns)
    )
    return ScenarioSpace(name=f"mc-grid-{algorithm}-{engine}", requests=requests)


# ---------------------------------------------------------------------------
# Saved frontiers
# ---------------------------------------------------------------------------


def save_frontier(exploration: Exploration, path: str | Path) -> None:
    """Persist an exploration's leaves (for fuzz seeding and reuse)."""
    document = {
        "kind": FRONTIER_KIND,
        "schema": FRONTIER_SCHEMA,
        "algorithm": exploration.algorithm,
        "n": exploration.n,
        "t": exploration.t,
        "model": exploration.model,
        "horizon": exploration.horizon,
        "reduce": exploration.reduce,
        "stats": exploration.stats.to_dict(),
        "leaves": [
            {
                "values": list(leaf.values),
                "scenario": scenario_to_dict(leaf.scenario),
                "decisions": {
                    str(pid): [entry[0], entry[1]]
                    for pid, entry in sorted(leaf.decisions.items())
                },
                "rounds": leaf.rounds,
            }
            for leaf in exploration.leaves
        ],
    }
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_frontier(path: str | Path) -> Exploration:
    """Load a frontier saved by :func:`save_frontier`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read frontier {path}: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != FRONTIER_KIND:
        raise ConfigurationError(
            f"{path} is not an {FRONTIER_KIND} file"
        )
    stats = ExploreStats()
    for key, value in data.get("stats", {}).items():
        if hasattr(stats, key):
            setattr(stats, key, value)
    try:
        leaves = [
            Leaf(
                values=tuple(entry["values"]),
                scenario=scenario_from_dict(entry["scenario"]),
                decisions={
                    int(pid): (record[0], record[1])
                    for pid, record in entry.get("decisions", {}).items()
                },
                rounds=entry.get("rounds", 0),
            )
            for entry in data.get("leaves", ())
        ]
        return Exploration(
            algorithm=data["algorithm"],
            n=data["n"],
            t=data["t"],
            model=data["model"],
            horizon=data["horizon"],
            reduce=data.get("reduce", True),
            leaves=leaves,
            stats=stats,
        )
    except KeyError as exc:
        raise ConfigurationError(
            f"frontier {path} lacks field {exc.args[0]!r}"
        ) from exc
