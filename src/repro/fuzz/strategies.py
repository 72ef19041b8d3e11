"""Composable, seed-stable generators for fuzz cases.

Two layers share one vocabulary:

* **plain generators** (``generate_*``) — pure functions of a stream
  seed and a case index, built on :func:`repro.runtime.space.derived_seed`
  exactly like the registered random spaces.  They need nothing beyond
  the standard library, so the ``repro fuzz`` CLI works on a bare
  install.
* **Hypothesis strategies** (``failure_patterns``, ``failure_scenarios``,
  ``initial_values``, ``rounds_requests``) — the same structures as
  first-class strategies, so property tests get Hypothesis' shrinking
  and example database for free.  Hypothesis is an optional dependency;
  the strategy constructors raise a clear
  :class:`~repro.errors.ConfigurationError` when it is missing, and
  nothing else in :mod:`repro.fuzz` requires it.

Both layers promote the ad-hoc draws of
:func:`repro.failures.generators.random_pattern` and
:func:`repro.rounds.enumeration.random_scenario` into one place with
one admissibility story: every produced scenario passes
:func:`~repro.rounds.scenario.validate_scenario` for its model.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.errors import ConfigurationError
from repro.failures.generators import random_pattern
from repro.failures.pattern import FailurePattern
from repro.rounds.enumeration import _pending_candidates, random_scenario
from repro.rounds.scenario import (
    CrashEvent,
    FailureScenario,
    validate_scenario,
)
from repro.runtime.request import ExecutionRequest
from repro.runtime.space import derived_seed

#: Engines the fuzzer targets by default.  ``rounds-rs``/``rounds-rws``
#: split the round executor by model so a campaign can round-robin all
#: four deterministic run semantics with one list.
FUZZ_ENGINES = ("rounds-rs", "rounds-rws", "rs_on_ss", "rws_on_sp")

#: Algorithms that are *safe* under each run semantics: any consensus
#: violation in a generated case is a bug, never an expected outcome,
#: which is what lets the differential oracles assert agreement
#: unconditionally.
SAFE_ALGORITHMS = {
    "rounds-rs": ("floodset", "c-opt", "f-opt", "a1"),
    "rounds-rws": ("floodset-ws", "c-opt-ws", "f-opt-ws"),
    "rs_on_ss": ("floodset", "c-opt", "f-opt", "a1"),
    "rws_on_sp": ("floodset-ws", "c-opt-ws", "f-opt-ws"),
}


def case_rng(seed: int, index: int) -> random.Random:
    """The deterministic RNG of case ``index`` in stream ``seed``.

    Identical to the derived-seed scheme of the registered random
    spaces: the case depends only on ``(seed, index)``, never on how
    many cases precede it or which worker executes it.
    """
    return random.Random(derived_seed(seed, index))


def generate_values(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random binary initial configuration."""
    return tuple(rng.randint(0, 1) for _ in range(n))


def generate_pattern(
    rng: random.Random, n: int, max_failures: int, horizon: int
) -> FailurePattern:
    """A random step-time failure pattern (promoted ``random_pattern``)."""
    return random_pattern(n, max_failures, horizon, rng)


def generate_scenario(
    rng: random.Random,
    n: int,
    t: int,
    *,
    max_round: int,
    allow_pending: bool,
) -> FailureScenario:
    """A random admissible round-model scenario (promoted draw)."""
    return random_scenario(
        n, t, max_round=max_round, allow_pending=allow_pending, rng=rng
    )


def generate_case(
    index: int,
    *,
    seed: int,
    engine: str,
    max_n: int = 4,
) -> ExecutionRequest:
    """Case ``index`` of the fuzz stream ``seed`` for one engine.

    The request is self-describing (engine, algorithm, adversary, seed,
    knobs), so a failing case round-trips through JSON into a repro
    file and back without any ambient state.
    """
    if engine not in FUZZ_ENGINES:
        raise ConfigurationError(
            f"unknown fuzz engine {engine!r}; choose from {FUZZ_ENGINES}"
        )
    rng = case_rng(seed, index)
    n = rng.randint(3, max(3, max_n))
    t = rng.randint(1, min(2, n - 1))
    pool = SAFE_ALGORITHMS[engine]
    if t != 1:
        # A1 is defined for exactly one tolerated crash.
        pool = tuple(a for a in pool if a != "a1")
    algorithm = rng.choice(pool)
    values = generate_values(rng, n)
    max_rounds = t + 2
    name = f"fuzz-{engine}-{seed}-{index:04d}"
    if engine in ("rounds-rs", "rounds-rws"):
        model = "RS" if engine.endswith("-rs") else "RWS"
        scenario = generate_scenario(
            rng,
            n,
            t,
            max_round=max_rounds - 1,
            allow_pending=(model == "RWS"),
        )
        return ExecutionRequest(
            name=name,
            engine="rounds",
            algorithm=algorithm,
            values=values,
            t=t,
            model=model,
            scenario=scenario,
            max_rounds=max_rounds,
        )
    if engine == "rs_on_ss":
        phi = rng.choice((1, 2))
        delta = rng.choice((1, 2))
        # Keep crash times within the emulation's active span so most
        # cases exercise mid-round crashes rather than post-run ones.
        horizon = 8 * n * max_rounds * phi
        pattern = generate_pattern(rng, n, t, horizon)
        return ExecutionRequest(
            name=name,
            engine="rs_on_ss",
            algorithm=algorithm,
            values=values,
            t=t,
            pattern=pattern,
            max_rounds=max_rounds,
            seed=rng.getrandbits(31),
            params=(("delta", delta), ("phi", phi)),
            check_consensus=False,
        )
    pattern = generate_pattern(rng, n, t, 12 * n)
    # The SP emulation's round-completion rule waits for every alive
    # peer's message; the algorithms stop sending after round t + 1
    # (they have decided), so more rounds would deadlock the rule.
    return ExecutionRequest(
        name=name,
        engine="rws_on_sp",
        algorithm=algorithm,
        values=values,
        t=t,
        pattern=pattern,
        max_rounds=t + 1,
        seed=rng.getrandbits(31),
        params=(
            ("delivery_prob", rng.choice((0.1, 0.2, 0.3))),
            ("max_age", 80),
            ("max_detection_delay", 2),
        ),
        check_consensus=False,
    )


# ---------------------------------------------------------------------------
# The mc-frontier stream: fuzzing from deep reachable states
# ---------------------------------------------------------------------------


def mc_frontier_case(
    index: int,
    *,
    seed: int,
    exploration: Any,
    extra_rounds: int = 2,
) -> ExecutionRequest:
    """Case ``index`` of a fuzz stream seeded from a checker frontier.

    Random generation reaches deep states with vanishing probability;
    the model checker's saved frontier is a census of *every* reachable
    leaf of its bounded instance.  Each case re-executes one leaf —
    drawn by the usual ``(seed, index)`` scheme — with a horizon
    extended by up to ``extra_rounds``, probing behaviour *past* the
    explored bound from an exactly-known deep state.  The case still
    draws its engine name (``rounds`` or ``vector``, two names of the
    round executor): dropping the draw would shift every later draw and
    change every seeded frontier stream.
    """
    leaves = exploration.leaves
    if not leaves:
        raise ConfigurationError(
            "cannot fuzz from an empty frontier (no leaves)"
        )
    rng = case_rng(seed, index)
    leaf = leaves[rng.randrange(len(leaves))]
    engine = rng.choice(("rounds", "vector"))
    horizon = exploration.horizon + rng.randint(0, max(0, extra_rounds))
    # Consensus is only an oracle where the algorithm is safe for the
    # frontier's model — a frontier of a REFUTED instance (e.g. plain
    # FloodSet under RWS) has expected disagreements, not bugs.
    pool_key = f"rounds-{exploration.model.lower()}"
    safe = exploration.algorithm in SAFE_ALGORITHMS.get(pool_key, ())
    return ExecutionRequest(
        name=f"mc-frontier-{seed}-{index:04d}",
        engine=engine,
        algorithm=exploration.algorithm,
        values=leaf.values,
        t=exploration.t,
        model=exploration.model,
        scenario=leaf.scenario,
        max_rounds=horizon,
        check_consensus=safe,
    )


def mc_frontier_cases(
    budget: int,
    seed: int,
    frontier: Any,
    *,
    extra_rounds: int = 2,
) -> tuple[ExecutionRequest, ...]:
    """``budget`` cases sampled from ``frontier`` (path or Exploration)."""
    if isinstance(frontier, (str, bytes)) or hasattr(frontier, "__fspath__"):
        from repro.mc.space import load_frontier

        frontier = load_frontier(frontier)
    return tuple(
        mc_frontier_case(
            index, seed=seed, exploration=frontier, extra_rounds=extra_rounds
        )
        for index in range(budget)
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies (optional dependency)
# ---------------------------------------------------------------------------


def _strategies():
    """Import ``hypothesis.strategies`` or explain how to get it."""
    try:
        from hypothesis import strategies as st
    except ImportError as exc:  # pragma: no cover - exercised without dep
        raise ConfigurationError(
            "hypothesis is not installed; the repro.fuzz strategy "
            "constructors need it (the plain generate_* helpers and the "
            "`repro fuzz` CLI do not)"
        ) from exc
    return st


def initial_values(n: int, domain: Sequence[Any] = (0, 1)):
    """Strategy: an initial configuration of ``n`` values over ``domain``."""
    st = _strategies()
    return st.lists(
        st.sampled_from(tuple(domain)), min_size=n, max_size=n
    ).map(tuple)


def failure_patterns(*, n: int = 4, max_failures: int | None = None, horizon: int = 40):
    """Strategy: step-time crash patterns with at most ``max_failures``.

    Shrinks toward the crash-free pattern (fewer victims) and toward
    time 0 (earlier crashes), which is exactly the minimality order the
    campaign shrinker uses.
    """
    st = _strategies()
    limit = n - 1 if max_failures is None else min(max_failures, n - 1)
    return st.dictionaries(
        keys=st.integers(0, n - 1),
        values=st.integers(0, horizon),
        max_size=limit,
    ).map(lambda crashes: FailurePattern.with_crashes(n, crashes))


def crash_events(pid: int, *, n: int, max_round: int):
    """Strategy: one admissible :class:`CrashEvent` for process ``pid``."""
    st = _strategies()
    others = tuple(q for q in range(n) if q != pid)

    def build(round_index: int, sent_mask: int, applies: bool) -> CrashEvent:
        sent_to = frozenset(
            q for bit, q in enumerate(others) if (sent_mask >> bit) & 1
        )
        # A transition needs the full send to have completed.
        if sent_to != frozenset(others):
            applies = False
        return CrashEvent(
            pid=pid,
            round=round_index,
            sent_to=sent_to,
            applies_transition=applies,
        )

    return st.builds(
        build,
        st.integers(1, max_round),
        st.integers(0, 2 ** len(others) - 1),
        st.booleans(),
    )


def failure_scenarios(
    *,
    n: int = 4,
    t: int = 1,
    max_round: int = 3,
    allow_pending: bool = False,
):
    """Strategy: admissible round-model scenarios for one model.

    Every example passes
    :func:`~repro.rounds.scenario.validate_scenario` with the given
    ``t`` and ``allow_pending``; the pending set is drawn from the same
    weak-round-synchrony candidate list the exhaustive enumeration
    uses.  Shrinks toward failure-free.
    """
    st = _strategies()

    @st.composite
    def scenarios(draw) -> FailureScenario:
        victims = draw(
            st.lists(
                st.integers(0, n - 1),
                unique=True,
                max_size=min(t, n - 1),
            )
        )
        events = tuple(
            draw(crash_events(pid, n=n, max_round=max_round))
            for pid in sorted(victims)
        )
        pending: frozenset = frozenset()
        if allow_pending and events:
            candidates = _pending_candidates(n, events, max_round)
            if candidates:
                mask = draw(st.integers(0, 2 ** len(candidates) - 1))
                pending = frozenset(
                    c for bit, c in enumerate(candidates) if (mask >> bit) & 1
                )
        scenario = FailureScenario(n=n, crashes=events, pending=pending)
        if validate_scenario(scenario, t=t, allow_pending=allow_pending):
            # Rare inconsistent pending combination: keep the crashes,
            # drop the pending set (mirrors random_scenario).
            scenario = FailureScenario(n=n, crashes=events)
        return scenario

    return scenarios()


def rounds_requests(
    *,
    model: str = "RS",
    n: int = 4,
    t: int = 1,
    max_rounds: int = 4,
    algorithms: Sequence[str] | None = None,
):
    """Strategy: complete rounds-engine requests for safe algorithms."""
    st = _strategies()
    engine = "rounds-rs" if model == "RS" else "rounds-rws"
    pool = tuple(
        algorithms if algorithms is not None else SAFE_ALGORITHMS[engine]
    )

    def build(index, algorithm, values, scenario) -> ExecutionRequest:
        return ExecutionRequest(
            name=f"prop-{model.lower()}-{index:06d}",
            engine="rounds",
            algorithm=algorithm,
            values=values,
            t=t,
            model=model,
            scenario=scenario,
            max_rounds=max_rounds,
        )

    return st.builds(
        build,
        st.integers(0, 999_999),
        st.sampled_from(pool),
        initial_values(n),
        failure_scenarios(
            n=n,
            t=t,
            max_round=max_rounds - 1,
            allow_pending=(model == "RWS"),
        ),
    )
