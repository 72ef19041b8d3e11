"""Property-based tests (hypothesis) on core invariants.

These complement the exhaustive checks: hypothesis explores odd corners
of the *parameter* space (sizes, domains, adversary shapes) while the
exhaustive enumerations nail down specific (n, t) instances completely.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.consensus import FloodSet, FloodSetWS, check_uniform_consensus_run
from repro.failures import FailurePattern, PerfectDetector, classify_history
from repro.models.ss import SSScheduler, validate_ss_run
from repro.rounds import RoundModel, execute, random_scenario
from repro.simulation.automaton import IdleAutomaton
from repro.simulation.executor import StepExecutor
from tests.reference.validators import (
    check_round_synchrony,
    check_weak_round_synchrony,
)

# -- round-model invariants ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
    values=st.data(),
)
def test_floodsetws_uniform_agreement_random_rws(n, seed, values):
    """FloodSetWS never violates uniform consensus under any random
    admissible RWS adversary."""
    rng = random.Random(seed)
    vals = [values.draw(st.integers(0, 3)) for _ in range(n)]
    scenario = random_scenario(n, 1, max_round=2, allow_pending=True, rng=rng)
    run = execute(
        FloodSetWS(), vals, scenario, t=1, model=RoundModel.RWS, max_rounds=4
    )
    assert check_uniform_consensus_run(run) == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    t=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_rs_executor_satisfies_round_synchrony(n, t, seed):
    """Every RS execution satisfies the round synchrony property."""
    if t >= n:
        return
    rng = random.Random(seed)
    scenario = random_scenario(n, t, max_round=t + 1, allow_pending=False, rng=rng)
    values = [rng.randint(0, 2) for _ in range(n)]
    run = execute(
        FloodSet(), values, scenario, t=t, model=RoundModel.RS,
        max_rounds=t + 2,
    )
    assert check_round_synchrony(run) == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_rws_executor_satisfies_weak_round_synchrony(n, seed):
    """Every RWS execution satisfies weak round synchrony."""
    rng = random.Random(seed)
    scenario = random_scenario(n, 1, max_round=2, allow_pending=True, rng=rng)
    values = [rng.randint(0, 2) for _ in range(n)]
    run = execute(
        FloodSet(), values, scenario, t=1, model=RoundModel.RWS, max_rounds=3
    )
    assert check_weak_round_synchrony(run) == []


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_floodset_w_sets_grow_monotonically(n, seed):
    """A process's W set never loses values across rounds."""
    rng = random.Random(seed)
    scenario = random_scenario(n, 1, max_round=2, allow_pending=False, rng=rng)
    values = [rng.randint(0, 3) for _ in range(n)]
    algorithm = FloodSet()
    states = {
        pid: algorithm.initial_state(pid, n, 1, values[pid])
        for pid in range(n)
    }
    run = execute(
        algorithm, values, scenario, t=1, model=RoundModel.RS, max_rounds=3,
        run_all_rounds=True,
    )
    for pid in range(n):
        final = run.final_states[pid]
        assert states[pid].W <= final.W


# -- step-model invariants ----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    phi=st.integers(min_value=1, max_value=3),
    delta=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
    crash_time=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
)
def test_ss_scheduler_never_violates_bounds(phi, delta, seed, crash_time):
    """SSScheduler's runs always pass the independent SS validators."""
    crashes = {1: crash_time} if crash_time is not None else {}
    pattern = FailurePattern.with_crashes(3, crashes)
    executor = StepExecutor(
        IdleAutomaton(),
        3,
        pattern,
        SSScheduler(phi, delta, rng=random.Random(seed)),
    )
    run = executor.execute(80)
    assert validate_ss_run(run, phi, delta) == []


# -- detector invariants -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    crash_times=st.dictionaries(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=60),
        max_size=2,
    ),
    max_delay=st.integers(min_value=0, max_value=30),
)
def test_perfect_detector_axioms_hold_for_any_delays(
    seed, crash_times, max_delay
):
    """P's histories satisfy strong completeness + strong accuracy for
    every crash pattern and every finite detection-delay assignment."""
    pattern = FailurePattern.with_crashes(4, crash_times)
    history = PerfectDetector(max_delay=max_delay).history(
        pattern, horizon=150, rng=random.Random(seed)
    )
    report = classify_history(history, pattern, 150)
    assert not report.violations


# -- commit invariants ---------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    votes=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_synchronous_commit_nbac_random_rs(seed, votes):
    """SynchronousCommit never violates NBAC under any random admissible
    RS adversary and any vote assignment."""
    from repro.commit import check_nbac_run
    from repro.commit.algorithms import SynchronousCommit

    rng = random.Random(seed)
    scenario = random_scenario(3, 1, max_round=2, allow_pending=False, rng=rng)
    run = execute(
        SynchronousCommit(), votes, scenario, t=1,
        model=RoundModel.RS, max_rounds=4,
    )
    assert check_nbac_run(run) == []


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    votes=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_p_commit_nbac_random_rws(seed, votes):
    """PerfectFDCommit never violates NBAC under any random admissible
    RWS adversary (pending messages included)."""
    from repro.commit import check_nbac_run
    from repro.commit.algorithms import PerfectFDCommit

    rng = random.Random(seed)
    scenario = random_scenario(3, 1, max_round=2, allow_pending=True, rng=rng)
    run = execute(
        PerfectFDCommit(), votes, scenario, t=1,
        model=RoundModel.RWS, max_rounds=4,
    )
    assert check_nbac_run(run) == []


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=2, max_value=4),
)
def test_latency_never_below_one(seed, n):
    """No algorithm can decide before its first transition: |r| >= 1 on
    every complete run."""
    from repro.consensus import FloodSetWS

    rng = random.Random(seed)
    scenario = random_scenario(n, 1, max_round=2, allow_pending=True, rng=rng)
    values = [rng.randint(0, 1) for _ in range(n)]
    run = execute(
        FloodSetWS(), values, scenario, t=1,
        model=RoundModel.RWS, max_rounds=4,
    )
    latency = run.latency()
    assert latency is None or latency >= 1


# -- cache-key invariants -------------------------------------------------------
#
# The result store and run-directory resume find cells by these keys, so
# two invariants are load-bearing: the fragment-built canonical form must
# equal the whole-document reference encoder (tests/reference_keys.py)
# exactly, and keys must be injective over canonical content.


def _request_strategy():
    from repro.failures import FailurePattern
    from repro.runtime import ExecutionRequest

    value = st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.booleans(),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.text(max_size=8),
    )
    name = st.one_of(
        st.text(min_size=1, max_size=12),
        st.sampled_from(['", "name": ', 'x", "name": "y', '"}, "v": 3}']),
    )
    params = st.lists(
        st.tuples(
            st.sampled_from(["delivery_prob", "phi", "run_all_rounds"]),
            st.one_of(st.floats(allow_nan=False, width=32), st.booleans()),
        ),
        max_size=2,
        unique_by=lambda pair: pair[0],
    ).map(tuple)

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=5))
        values = tuple(draw(value) for _ in range(n))
        common = dict(
            name=draw(name),
            algorithm=draw(st.sampled_from(["floodset", "floodset-ws"])),
            values=values,
            t=1,
            max_rounds=draw(st.integers(min_value=1, max_value=6)),
            seed=draw(st.one_of(st.none(), st.integers(0, 2**62))),
            params=draw(params),
            expect_disagreement=draw(st.booleans()),
            check_consensus=draw(st.booleans()),
        )
        if draw(st.booleans()):
            crash = draw(st.integers(min_value=0, max_value=20))
            return ExecutionRequest(
                engine=draw(st.sampled_from(["rs_on_ss", "rws_on_sp"])),
                pattern=FailurePattern.with_crashes(n, {n - 1: crash}),
                **common,
            )
        scenario = random_scenario(
            n,
            1,
            max_round=2,
            allow_pending=True,
            rng=random.Random(draw(st.integers(0, 10**6))),
        )
        return ExecutionRequest(
            engine=draw(st.sampled_from(["rounds", "vector"])),
            model=draw(st.sampled_from(["RS", "RWS"])),
            scenario=scenario,
            **common,
        )

    return build()


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(_request_strategy(), min_size=1, max_size=8))
def test_batch_cache_keys_equal_reference_encoder(requests):
    """Every request's ``cache_key()`` and ``work_key()`` are exactly
    the whole-document reference encoder's, for arbitrary value domains,
    names and knobs — and stay so when the scenario fragment is served
    from its memo on the instance."""
    from tests.reference_keys import reference_cache_key, reference_work_key

    for _ in range(2):
        assert [request.cache_key() for request in requests] == [
            reference_cache_key(request) for request in requests
        ]
        assert [request.work_key() for request in requests] == [
            reference_work_key(request) for request in requests
        ]
        requests = [replace(request) for request in requests]


def _cross_type_equal_cells():
    """Two cells whose ``to_dict()`` compare equal in Python (``0 ==
    False``) but whose canonical JSON — what the key hashes — differs."""
    from repro.rounds import FailureScenario
    from repro.runtime import ExecutionRequest

    return [
        ExecutionRequest(
            name="0",
            engine="rounds",
            algorithm="floodset",
            values=values,
            t=1,
            model="RS",
            scenario=FailureScenario.failure_free(2),
            max_rounds=1,
        )
        for values in ((0, 0), (0, False))
    ]


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(_request_strategy(), min_size=2, max_size=8))
@example(requests=_cross_type_equal_cells())
def test_batch_cache_keys_injective_over_canonical_content(requests):
    """Equal keys imply equal canonical request content (and vice
    versa) — a store lookup by key is only sound if a key collision
    cannot span distinct cells.

    Canonical content is the JSON the key is defined over, not
    ``to_dict()`` equality: ``(0, 0)`` and ``(0, False)`` are equal
    tuples in Python and *two* cells (the engines can tell them apart),
    so they must — and do — get two keys.
    """
    keys = [request.cache_key() for request in requests]
    canonical = [
        json.dumps(request.to_dict(), sort_keys=True, default=repr)
        for request in requests
    ]
    for i in range(len(requests)):
        for j in range(len(requests)):
            assert (keys[i] == keys[j]) == (canonical[i] == canonical[j])
