"""The unified execution runtime: requests, harnesses, spaces, sweeps.

The determinism contract under test is the PR's headline: the same
scenario space produces *byte-identical* merged JSONL traces and equal
metrics aggregates whether it runs serially (``jobs=1``), across a
process pool (``jobs=4``), or cache-warm — across both the round
engines and the step-model emulations.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter

import pytest

from repro.errors import ConfigurationError
from repro.failures import FailurePattern
from repro.runtime import (
    ExecutionRequest,
    ExecutionResult,
    ResultCache,
    ScenarioSpace,
    SweepRunner,
    derived_seed,
    e10_lambda_space,
    execute_request,
    harness_for,
    make_algorithm,
    oracle_sweep_space,
    parallel_map,
    run_space,
    space_by_name,
)
from repro.workloads import adversarial_split, failure_free
from tests.reference_keys import (
    reference_cache_key,
    reference_form,
    reference_work_key,
)


def _round_request(name="cell", **overrides):
    defaults = dict(
        name=name,
        engine="rounds",
        algorithm="floodset",
        values=adversarial_split(3),
        t=1,
        model="RS",
        scenario=failure_free(3),
        max_rounds=4,
    )
    defaults.update(overrides)
    return ExecutionRequest(**defaults)


def _emulation_request(engine="rs_on_ss"):
    params = (
        ()
        if engine == "rs_on_ss"
        else (
            ("max_detection_delay", 2),
            ("delivery_prob", 0.15),
            ("max_age", 80),
        )
    )
    return ExecutionRequest(
        name=f"emu-{engine}",
        engine=engine,
        algorithm="floodset",
        values=adversarial_split(3),
        t=1,
        pattern=FailurePattern.with_crashes(3, {0: 7}),
        max_rounds=2,
        seed=3,
        params=params,
        check_consensus=False,
    )


class TestExecutionRequest:
    def test_round_trip_through_dict(self):
        request = _round_request()
        assert ExecutionRequest.from_dict(request.to_dict()) == request

    def test_emulation_round_trip_through_dict(self):
        request = _emulation_request("rws_on_sp")
        assert ExecutionRequest.from_dict(request.to_dict()) == request

    def test_cache_key_is_stable_and_content_sensitive(self):
        a, b = _round_request(), _round_request()
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != _round_request(model="RWS").cache_key()
        assert a.cache_key() != _round_request(max_rounds=5).cache_key()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            _round_request(engine="warp")

    def test_rounds_requires_scenario_and_model(self):
        with pytest.raises(ConfigurationError):
            _round_request(scenario=None)
        with pytest.raises(ConfigurationError):
            _round_request(model=None)

    def test_emulation_requires_pattern(self):
        with pytest.raises(ConfigurationError):
            ExecutionRequest(
                name="bad",
                engine="rs_on_ss",
                algorithm="floodset",
                values=(0, 1, 1),
                pattern=None,
            )

    def test_unknown_algorithm_rejected_at_execution(self):
        with pytest.raises(ConfigurationError):
            make_algorithm("quantum-floodset")


class TestHarnesses:
    @pytest.mark.parametrize("engine", ["rounds", "rs_on_ss", "rws_on_sp"])
    def test_harness_selected_by_engine(self, engine):
        assert harness_for(engine).engine == engine

    def test_round_execution_decides(self):
        result = execute_request(_round_request())
        assert result.decisions
        assert result.latency is not None
        assert result.events
        assert result.metrics["counters"]

    def test_execution_is_deterministic(self):
        a = execute_request(_round_request())
        b = execute_request(_round_request())
        assert [e.to_json() for e in a.events] == [
            e.to_json() for e in b.events
        ]
        assert a.metrics == b.metrics

    @pytest.mark.parametrize("engine", ["rs_on_ss", "rws_on_sp"])
    def test_emulation_execution_produces_trace(self, engine):
        result = execute_request(_emulation_request(engine))
        assert result.events
        assert result.num_rounds >= 1

    def test_result_round_trips_through_dict(self):
        result = execute_request(_round_request())
        rebuilt = ExecutionResult.from_dict(result.to_dict())
        assert [e.to_json() for e in rebuilt.events] == [
            e.to_json() for e in result.events
        ]
        assert rebuilt.decisions == result.decisions
        assert rebuilt.metrics == result.metrics


class TestScenarioSpace:
    def test_duplicate_cell_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpace.explicit(
                "dup", [_round_request("same"), _round_request("same")]
            )

    def test_duplicate_cell_names_message_lists_each_once_sorted(self):
        cells = [_round_request(name) for name in ("b", "a", "c", "b", "a", "b")]
        with pytest.raises(ConfigurationError) as raised:
            ScenarioSpace.explicit("dup", cells)
        assert str(raised.value) == (
            "space 'dup' has duplicate cell names: ['a', 'b']"
        )

    def test_duplicate_check_is_linear_in_cells(self):
        # 50 000 cells: the old ``names.count`` scan compared 2.5e9
        # name pairs (about a minute); one counting pass takes a few ms.
        base = _round_request()
        cells = [replace(base, name=f"cell-{i}") for i in range(50_000)]
        started = perf_counter()
        space = ScenarioSpace.explicit("big", cells)
        assert perf_counter() - started < 5.0
        assert len(space) == 50_000

    def test_derived_seeds_are_stable_and_distinct(self):
        assert derived_seed(42, 0) == derived_seed(42, 0)
        assert derived_seed(42, 0) != derived_seed(42, 1)
        assert derived_seed(42, 0) != derived_seed(43, 0)

    def test_random_stream_depends_only_on_seed_and_index(self):
        a = ScenarioSpace.random_rounds(
            "s", algorithm="floodset", model="RWS", n=4, count=5, seed=9
        )
        b = ScenarioSpace.random_rounds(
            "s", algorithm="floodset", model="RWS", n=4, count=5, seed=9
        )
        assert [r.cache_key() for r in a] == [r.cache_key() for r in b]
        c = ScenarioSpace.random_rounds(
            "s", algorithm="floodset", model="RWS", n=4, count=5, seed=10
        )
        assert [r.cache_key() for r in a] != [r.cache_key() for r in c]

    def test_space_by_name_catalogue(self):
        assert len(space_by_name("oracle-sweep", count=2)) == 14
        with pytest.raises(ConfigurationError):
            space_by_name("no-such-space")

    def test_space_by_name_refuses_what_a_space_does_not_take(self):
        assert len(space_by_name("e10-lambda")) == 32
        for name, options in [
            ("e10-lambda", {"count": 0}),
            ("e10-lambda", {"seed": 7}),
        ]:
            with pytest.raises(ConfigurationError, match="takes no"):
                space_by_name(name, **options)


class TestSweepDeterminism:
    """jobs=1 and jobs=4 must be byte-identical, for every engine."""

    @pytest.fixture(scope="class")
    def space(self):
        # Round cells (RS + RWS streams + workloads) *and* both
        # emulation engines: the full oracle-sweep space, small streams.
        return oracle_sweep_space(count=3)

    def test_parallel_matches_serial_byte_for_byte(self, space):
        serial = SweepRunner(jobs=1).run(space)
        parallel = SweepRunner(jobs=4).run(space)
        assert list(serial.merged_jsonl_lines()) == list(
            parallel.merged_jsonl_lines()
        )
        assert serial.metrics.state() == parallel.metrics.state()

    def test_parallel_matches_serial_for_step_engines(self):
        space = ScenarioSpace.explicit(
            "emulations",
            [_emulation_request("rs_on_ss"), _emulation_request("rws_on_sp")],
        )
        serial = run_space(space, jobs=1)
        parallel = run_space(space, jobs=4)
        assert list(serial.merged_jsonl_lines()) == list(
            parallel.merged_jsonl_lines()
        )
        assert serial.metrics.state() == parallel.metrics.state()

    def test_merged_trace_timestamps_are_globally_monotonic(self, space):
        events = SweepRunner(jobs=4).run(space).merged_events()
        timestamps = [event.ts for event in events]
        assert timestamps == [float(i) for i in range(1, len(events) + 1)]


class TestResultCache:
    def test_second_run_executes_nothing_and_matches(self, tmp_path):
        space = oracle_sweep_space(count=2)
        cache_dir = str(tmp_path / "cache")
        cold = SweepRunner(jobs=1, cache=cache_dir).run(space)
        warm = SweepRunner(jobs=1, cache=cache_dir).run(space)
        assert cold.executed == cold.total and cold.cached == 0
        assert warm.executed == 0 and warm.cached == warm.total
        assert list(cold.merged_jsonl_lines()) == list(
            warm.merged_jsonl_lines()
        )
        assert cold.metrics.state() == warm.metrics.state()

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        space = oracle_sweep_space(count=2)
        cache_dir = str(tmp_path / "cache")
        SweepRunner(jobs=4, cache=cache_dir).run(space)
        warm = SweepRunner(jobs=1, cache=cache_dir).run(space)
        assert warm.executed == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        request = _round_request()
        cache.put([execute_request(request)])
        assert len(cache) == 1
        for entry in tmp_path.iterdir():
            entry.write_text("not json", encoding="utf-8")
        assert cache.get(request.cache_key()) is None


class TestCheckedSweep:
    def test_checked_sweep_flags_expected_disagreements(self):
        result = run_space(oracle_sweep_space(count=2), check=True)
        assert result.checks_ok, result.describe()
        summary = result.describe()
        assert "executed" in summary and "cached" in summary

    def test_unchecked_sweep_has_no_verdicts(self):
        result = run_space(oracle_sweep_space(count=2))
        assert result.checks is None
        assert not result.checks_ok


class TestE10LambdaSpace:
    def test_latency_matches_theorem_5_2(self):
        result = run_space(e10_lambda_space(), check=True)
        assert result.checks_ok, result.describe()
        latency = result.latency_by_algorithm()
        # Λ = worst-case failure-free latency: >= 2 for every safe RWS
        # algorithm, exactly 1 for A1 in RS (Theorem 5.2's gap).
        for name in ("floodset-ws", "c-opt-ws", "f-opt-ws"):
            best, worst = latency[name]
            assert worst is not None and worst >= 2, (name, latency[name])
        assert latency["a1"] == (1, 1)


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=1) == parallel_map(
            _square, items, jobs=4
        )

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []


def _square(x):
    return x * x


# ---------------------------------------------------------------------------
# Cache and work keys of a batch of requests: seeded-fallback property tests
# (Hypothesis twin in tests/test_properties.py).  The result store finds
# cells by these keys, so "fragment-built == reference encoder" and
# injectivity are load-bearing.
# ---------------------------------------------------------------------------


class TestBatchCacheKeys:
    def _assert_batch_matches_reference(self, requests):
        keys = [request.cache_key() for request in requests]
        assert keys == [reference_cache_key(request) for request in requests]
        assert [request.work_key() for request in requests] == [
            reference_work_key(request) for request in requests
        ]
        # Injective across distinct cells: equal keys imply equal
        # canonical request content.
        by_key = {}
        for request, key in zip(requests, keys):
            if key in by_key:
                assert reference_form(by_key[key]) == reference_form(request)
            by_key[key] = request
        return keys

    def test_seeded_stream_across_every_engine(self):
        from repro.fuzz.strategies import FUZZ_ENGINES, generate_case

        engines = FUZZ_ENGINES
        for seed in (1, 7, 99):
            requests = [
                generate_case(
                    index, seed=seed, engine=engines[index % len(engines)]
                )
                for index in range(24)
            ]
            # ... and the round cells again under the executor's second name.
            requests += [
                replace(request, name=f"{request.name}-v", engine="vector")
                for request in requests
                if request.engine == "rounds"
            ]
            keys = self._assert_batch_matches_reference(requests)
            assert len(set(keys)) == len(requests)

    def test_awkward_per_cell_fields_still_splice_exactly(self):
        # Every field is a fragment of the canonical form — exercise the
        # encoder edge cases in the per-cell ones: non-int value types
        # (bool twins of ints, floats and negative zero, strings with
        # JSON metacharacters), names that spell the form's own
        # separators, unicode names, float params, huge seeds, and
        # pattern-based emulation requests.
        requests = [
            _round_request(name='quote"s\\and\nnewlines'),
            _round_request(name='", "name": '),
            _round_request(name='x", "params": [], "name": "y'),
            _round_request(name="unicode-Λ-λ-名前"),
            _round_request(values=(0, 0, 0)),
            _round_request(values=(0, False, 0)),
            _round_request(values=(True, 1, 0)),
            _round_request(values=(0.0, 1, 0)),
            _round_request(values=(-0.0, 1, 0)),
            _round_request(values=(0.5, 1, "x")),
            _round_request(values=("a", "b", "a")),
            _round_request(params=(("run_all_rounds", True),)),
            _round_request(expect_disagreement=True, check_consensus=False),
            _round_request(),
            _emulation_request(),
            _emulation_request("rws_on_sp"),
            replace(_emulation_request(), seed=2**62, name="big-seed"),
            replace(_emulation_request(), params=(("phi", 0.1 + 0.2),)),
        ]
        keys = self._assert_batch_matches_reference(requests)
        assert len(set(keys)) == len(requests)
        # Equal in Python, two cells on the wire.
        assert requests[4] == replace(requests[5], name=requests[4].name)
        assert requests[7] == replace(requests[8], name=requests[7].name)
        assert len({request.work_key() for request in requests[4:9]}) == 5

    def test_shared_scenario_instances_share_fragments(self, monkeypatch):
        from repro.runtime import request as request_module

        dumps = []
        original = request_module.scenario_to_dict

        def counting(scenario):
            dumps.append(scenario)
            return original(scenario)

        monkeypatch.setattr(request_module, "scenario_to_dict", counting)
        scenario = failure_free(3)
        requests = [
            _round_request(name=f"cell-{index}", scenario=scenario)
            for index in range(50)
        ]
        keys = [request.cache_key() for request in requests]
        work = {request.work_key() for request in requests}
        assert dumps == [scenario]
        monkeypatch.undo()
        assert keys == [reference_cache_key(request) for request in requests]
        assert len(set(keys)) == len(requests) and len(work) == 1
        # An equal scenario held as another instance serializes alike.
        other = _round_request(name="cell-0", scenario=failure_free(3))
        assert other.cache_key() == keys[0]

    def test_active_injection_falls_back_to_reference(self, monkeypatch):
        """Under an injection the form carries its name: keys still equal
        the reference encoder's and are disjoint from the clean ones, and
        equal cells still share a work key."""
        from repro.inject import INJECT_ENV, KNOWN_INJECTIONS

        name = next(iter(KNOWN_INJECTIONS))
        requests = [_round_request(name=f"cell-{i}") for i in range(4)]
        clean = [request.cache_key() for request in requests]
        clean_work = requests[0].work_key()
        monkeypatch.setenv(INJECT_ENV, name)
        injected = self._assert_batch_matches_reference(requests)
        # The injected marker must change every key (separate cache).
        assert set(clean).isdisjoint(injected)
        assert len({request.work_key() for request in requests}) == 1
        assert requests[0].work_key() != clean_work
        monkeypatch.delenv(INJECT_ENV)
        assert [request.cache_key() for request in requests] == clean


# ---------------------------------------------------------------------------
# ResultCache concurrency: one store shared by concurrent writers
# ---------------------------------------------------------------------------


def _hammer_same_key(arg):
    directory, tag = arg
    request = _round_request()
    result = ExecutionResult(
        name=request.name,
        request_key=request.cache_key(),
        events=[],
        decisions={0: (1, 1)},
        latency=1,
        num_rounds=1,
        # Big enough that writers sharing a file (or a reader seeing a
        # half-written record) would interleave mid-payload and fail to
        # parse on read-back.
        extra={"writer": tag, "pad": "x" * 200_000},
    )
    ResultCache(str(directory)).put([result])
    return tag


class TestResultCacheConcurrency:
    def test_concurrent_same_key_writes_never_tear(self, tmp_path):
        directory = tmp_path / "cache"
        parallel_map(
            _hammer_same_key,
            [(directory, tag) for tag in range(16)],
            jobs=8,
        )
        cache = ResultCache(str(directory))
        assert len(cache) == 1
        # Every writer appended to a shard of its own; nothing else.
        assert len(list(directory.iterdir())) == len(
            list(directory.glob("shard-*.jsonl"))
        ) == 16
        entry = cache.get(_round_request().cache_key())
        assert entry is not None, "the winning write must parse whole"
        assert entry.extra["writer"] in range(16)
        assert len(entry.extra["pad"]) == 200_000
        assert cache.stats.corrupt_evictions == 0
        assert cache.stats.hits == 1

    def test_torn_entry_eviction_surfaces_in_stats(self, tmp_path):
        directory = tmp_path / "cache"
        request = _round_request()
        result = execute_request(request)
        ResultCache(str(directory)).put([result])
        (shard,) = directory.glob("shard-*.jsonl")
        # Simulate a writer killed mid-write: truncate the record.
        shard.write_bytes(shard.read_bytes()[:150])
        cache = ResultCache(str(directory))
        assert cache.get(request.cache_key()) is None
        assert cache.stats.corrupt_evictions == 1
        assert len(cache) == 0, "the corpse is not counted as an entry"
        # The slot re-fills (in this leg's own shard) and the tally sticks.
        cache.put([result])
        assert cache.get(request.cache_key()) is not None
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "corrupt_evictions": 1,
        }
        assert len(list(directory.glob("shard-*.jsonl"))) == 2

    def test_eviction_counts_flow_into_sweep_summary(self, tmp_path):
        space = ScenarioSpace.explicit("tiny", [_round_request()])
        cache_dir = str(tmp_path / "cache")
        first = SweepRunner(cache=cache_dir).run(space)
        assert first.cache_stats["corrupt_evictions"] == 0
        for shard in (tmp_path / "cache").glob("shard-*.jsonl"):
            shard.write_text("{torn", encoding="utf-8")
        second = SweepRunner(cache=cache_dir).run(space)
        assert second.cache_stats["corrupt_evictions"] == 1
        assert second.executed == 1  # served as a miss and re-executed
