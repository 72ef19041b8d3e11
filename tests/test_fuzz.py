"""Tests for the differential fuzzing harness (repro.fuzz).

Covers the strategy layer (plain generators and, when installed, the
Hypothesis strategies), the differential oracles, the delta-debugging
shrinker, the campaign driver and its CLI, the corrupt-cache-entry
eviction, and the seed-stability goldens that pin the sha256-derived
per-cell seeds.

The mutation smoke test flips ``REPRO_INJECT_BUG`` to plant a known
round-synchrony bug in the RS-on-SS emulation and asserts the fuzzer
finds it within a fixed budget, shrinks it to at most two crashed
processes, and emits a counterexample file that ``repro replay
--repro`` reproduces.
"""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main as cli_main
from repro.errors import ConfigurationError
from repro.fuzz import (
    FUZZ_ENGINES,
    generate_case,
    generate_cases,
    load_counterexample,
    resolve_engines,
    run_campaign,
    run_case,
    shrink,
)
from repro.fuzz.oracles import case_failures, twin_oracle, twin_request
from repro.fuzz.shrink import shrink_moves
from repro.inject import INJECT_ENV, KNOWN_INJECTIONS
from repro.rounds import validate_scenario
from repro.runtime.cache import ResultCache
from repro.runtime.harness import execute_request
from repro.runtime.request import ExecutionRequest, ExecutionResult
from repro.runtime.space import ScenarioSpace, derived_seed
from repro.serialize import scenario_from_dict


# ---------------------------------------------------------------------------
# Strategies: plain generators
# ---------------------------------------------------------------------------


class TestGenerators:
    def test_cases_are_seed_stable(self):
        for index in range(8):
            engine = FUZZ_ENGINES[index % len(FUZZ_ENGINES)]
            a = generate_case(index, seed=7, engine=engine)
            b = generate_case(index, seed=7, engine=engine)
            assert a == b
            assert a.cache_key() == b.cache_key()

    def test_cases_are_independent_of_budget(self):
        engines = resolve_engines(("all",))
        short = generate_cases(5, 3, engines)
        long = generate_cases(20, 3, engines)
        assert long[:5] == short

    def test_rounds_cases_are_admissible(self):
        for index in range(30):
            request = generate_case(index, seed=1, engine="rounds-rs")
            assert request.engine == "rounds"
            assert (
                validate_scenario(
                    request.scenario, t=request.t, allow_pending=False
                )
                == []
            )

    def test_emulation_cases_respect_resilience(self):
        for index in range(30):
            request = generate_case(index, seed=1, engine="rs_on_ss")
            assert len(request.pattern.faulty) <= request.t

    def test_sp_cases_stay_within_sending_horizon(self):
        # More rounds than t + 1 would deadlock the SP emulation's
        # delivered-or-suspected round-completion rule.
        for index in range(20):
            request = generate_case(index, seed=5, engine="rws_on_sp")
            assert request.max_rounds == request.t + 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_case(0, seed=0, engine="quantum")
        with pytest.raises(ConfigurationError):
            resolve_engines(("quantum",))

    def test_resolve_engines_expands_aliases(self):
        assert resolve_engines(("rounds",)) == ("rounds-rs", "rounds-rws")
        assert resolve_engines(("all",)) == FUZZ_ENGINES
        assert resolve_engines(("rs_on_ss", "rs_on_ss")) == ("rs_on_ss",)


# ---------------------------------------------------------------------------
# Seed stability goldens (regression: derived seeds must never drift)
# ---------------------------------------------------------------------------


class TestSeedGoldens:
    def test_derived_seed_golden_values(self):
        # sha256("{base}:{index}") truncated to 8 bytes; pinned so a
        # refactor cannot silently re-seed every random stream (which
        # would invalidate documented counterexamples and cached cells).
        assert [derived_seed(0, i) for i in range(4)] == [
            12426054289685354689,
            17227200041832915037,
            10603912086726310123,
            8562401648298655379,
        ]
        assert [derived_seed(42, i) for i in range(3)] == [
            6085284259181818738,
            278651779053087998,
            14840890843343779510,
        ]

    def test_random_rounds_stream_golden(self):
        space = ScenarioSpace.random_rounds(
            "golden", algorithm="floodset", model="RS", n=4, t=1,
            count=3, seed=42,
        )
        descriptions = [r.scenario.describe() for r in space.requests]
        assert descriptions == [
            "failure-free",
            "p0@r2(sent=[3])",
            "p2@r3(sent=[0, 1, 3]+trans)",
        ]
        assert [r.cache_key() for r in space.requests] == [
            "b3a5c66bb42305fdb5be9a5151e4779c1896cf33b95a788a6962caa97586d341",
            "52d77edddab7c17bca85318d5ae6b5e5ca26a27e8a298cbd175ce3911c5d8264",
            "3238b172e16bb2940873c8abc9249ee41fb1c7e97b5bcbb189323f6dcbb747e3",
        ]

    def test_fuzz_case_golden(self):
        request = generate_case(0, seed=0, engine="rounds-rs")
        assert request.algorithm == "floodset"
        assert request.values == (0, 1, 0, 0)
        assert request.t == 2
        assert request.scenario.describe() == "p0@r2(sent=[1])"
        assert request.cache_key() == (
            "f709f35a37592a7375a6b498bdb456b1434d42a3bc8f96a914b1098224cd90b2"
        )

    def test_injection_changes_cache_key(self, monkeypatch):
        request = generate_case(0, seed=0, engine="rounds-rs")
        clean = request.cache_key()
        monkeypatch.setenv(INJECT_ENV, "ss-drop-received")
        assert request.cache_key() != clean


# ---------------------------------------------------------------------------
# Result cache: corrupt records are misses, re-stored cells win
# ---------------------------------------------------------------------------


class TestCacheEviction:
    """Each damaged store is read by a fresh cache, as a resumed leg's
    would be (a writer never reads back a shard it is appending to)."""

    def _request(self) -> ExecutionRequest:
        return generate_case(0, seed=9, engine="rounds-rs")

    def _stored(self, tmp_path):
        request = self._request()
        result = execute_request(request)
        cache = ResultCache(tmp_path)
        cache.put([result])
        assert len(cache) == 1
        (shard,) = tmp_path.glob("shard-*.jsonl")
        return request, result, shard

    def test_truncated_entry_is_evicted(self, tmp_path):
        request, _, shard = self._stored(tmp_path)
        # Truncate mid-JSON, as an interrupted writer (or torn disk)
        # would leave it.
        shard.write_bytes(shard.read_bytes()[:140])
        cache = ResultCache(tmp_path)
        assert cache.get(request.cache_key()) is None
        assert len(cache) == 0
        assert cache.stats.corrupt_evictions == 1

    def test_wrong_schema_entry_is_evicted(self, tmp_path):
        request = self._request()
        (tmp_path / "shard-0-foreign.jsonl").write_text(
            json.dumps({"key": request.cache_key(), "foreign": True}) + "\n",
            encoding="utf-8",
        )
        cache = ResultCache(tmp_path)
        assert len(cache) == 1  # well-framed, so indexed...
        assert cache.get(request.cache_key()) is None  # ...but it does not parse as a cell
        assert len(cache) == 0
        assert cache.stats.corrupt_evictions == 1

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(self._request().cache_key()) is None
        assert cache.stats.corrupt_evictions == 0

    def test_evicted_slot_is_rewritten(self, tmp_path):
        request, result, shard = self._stored(tmp_path)
        shard.write_text("{", encoding="utf-8")
        cache = ResultCache(tmp_path)
        assert cache.get(request.cache_key()) is None
        cache.put([result])
        hit = cache.get(request.cache_key())
        assert hit is not None and hit.cached
        assert hit.decisions == result.decisions
        # The next leg reads the re-stored cell, not the damaged one.
        assert ResultCache(tmp_path).get(request.cache_key()) is not None


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class TestOracles:
    def test_clean_cases_pass_all_oracles(self):
        for index, engine in enumerate(FUZZ_ENGINES):
            request = generate_case(index, seed=2, engine=engine)
            assert run_case(request) == []

    def test_emulation_result_carries_induced_scenario(self):
        request = generate_case(0, seed=2, engine="rs_on_ss")
        result = execute_request(request)
        induced = scenario_from_dict(result.extra["induced_scenario"])
        assert (
            validate_scenario(induced, t=request.t, allow_pending=False)
            == []
        )
        # The extra survives the JSON round-trip the cache performs.
        restored = ExecutionResult.from_dict(result.to_dict())
        assert restored.extra == result.extra

    def test_twin_decisions_match_emulation(self):
        request = generate_case(0, seed=2, engine="rws_on_sp")
        result = execute_request(request)
        induced = scenario_from_dict(result.extra["induced_scenario"])
        twin = execute_request(twin_request(request, induced))
        assert twin.decisions == result.decisions

    def test_twin_oracle_flags_missing_extra(self):
        request = generate_case(0, seed=2, engine="rs_on_ss")
        result = execute_request(request)
        result.extra = {}
        problems = twin_oracle(request, result)
        assert problems and "induced scenario" in problems[0]

    def test_twin_oracle_flags_decision_divergence(self):
        request = generate_case(0, seed=2, engine="rs_on_ss")
        result = execute_request(request)
        result.decisions = {pid: (1, 999) for pid in result.decisions}
        problems = twin_oracle(request, result)
        assert any("decisions diverge" in p for p in problems)

    def test_case_failures_clean_on_rounds_engine(self):
        request = generate_case(0, seed=2, engine="rounds-rs")
        result = execute_request(request)
        assert case_failures(request, result) == []


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_moves_only_simplify(self):
        request = generate_case(1, seed=0, engine="rws_on_sp")
        baseline = len(request.pattern.faulty)
        for mutant in shrink_moves(request):
            assert len(mutant.pattern.faulty) <= baseline
            assert mutant.n <= request.n

    def test_shrinks_pattern_to_single_earliest_crash(self):
        request = generate_case(1, seed=0, engine="rws_on_sp")
        assert len(request.pattern.faulty) == 2

        # Synthetic failure: any case in which process 1 crashes.
        def still_fails(candidate: ExecutionRequest) -> bool:
            return 1 in candidate.pattern.faulty

        outcome = shrink(request, still_fails)
        assert still_fails(outcome.request)
        assert outcome.request.pattern.faulty == frozenset({1})
        assert outcome.request.pattern.crash_times[1] == 0
        assert outcome.request.n == 3  # dropped down from 4

    def test_shrinks_scenario_crashes_and_rounds(self):
        request = generate_case(0, seed=0, engine="rounds-rs")
        assert request.scenario.num_failures() == 1

        def still_fails(candidate: ExecutionRequest) -> bool:
            return candidate.scenario.num_failures() >= 1

        outcome = shrink(request, still_fails)
        scenario = outcome.request.scenario
        assert scenario.num_failures() == 1
        event = scenario.crashes[0]
        assert event.round == 1
        assert event.sent_to == frozenset()
        assert not event.applies_transition
        assert (
            validate_scenario(
                scenario, t=outcome.request.t, allow_pending=False
            )
            == []
        )

    def test_fixpoint_on_unshrinkable_case(self):
        request = generate_case(0, seed=0, engine="rounds-rs")

        def always_fails(candidate: ExecutionRequest) -> bool:
            return True

        outcome = shrink(request, always_fails)
        # Everything shrinkable was shrunk away: failure-free, minimal n,
        # all-zero values.
        assert outcome.request.scenario.num_failures() == 0
        assert outcome.request.n == 3
        assert set(outcome.request.values) == {0}


# ---------------------------------------------------------------------------
# Campaign + mutation smoke (the fuzzer must find a planted bug)
# ---------------------------------------------------------------------------


class TestCampaign:
    def test_clean_campaign_is_green(self, tmp_path):
        report = run_campaign(
            budget=16,
            seed=0,
            engines=("all",),
            cache_dir=str(tmp_path / "cache"),
            out_dir=str(tmp_path / "out"),
        )
        assert report.ok, report.describe()
        assert report.executed == 16
        assert report.twins == 8
        assert report.parity_problems == []
        assert report.repro_files == []

    def test_campaign_warm_cache_executes_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_campaign(budget=8, seed=1, engines=("rounds",), cache_dir=cache_dir)
        warm = run_campaign(
            budget=8, seed=1, engines=("rounds",), cache_dir=cache_dir
        )
        assert warm.executed == 0
        assert warm.cached == 8
        assert warm.ok

    def test_injected_bug_is_found_and_shrunk(self, tmp_path, monkeypatch):
        assert "ss-drop-received" in KNOWN_INJECTIONS
        monkeypatch.setenv(INJECT_ENV, "ss-drop-received")
        out_dir = tmp_path / "out"
        report = run_campaign(
            budget=40,
            seed=0,
            engines=("rs_on_ss",),
            out_dir=str(out_dir),
        )
        assert not report.ok
        assert report.counterexamples, "planted bug not found within budget"
        for ce in report.counterexamples:
            # Shrunk to a minimal trigger: at most two crashed processes.
            assert len(ce.shrunk.pattern.faulty) <= 2
            assert ce.shrunk_failures, "shrunk case no longer fails"
        assert report.repro_files
        # The emitted JSON is a loadable, replayable counterexample.
        request, document = load_counterexample(report.repro_files[0])
        assert document["injected_bug"] == "ss-drop-received"
        assert run_case(request), "replayed counterexample is clean"

    def test_injected_bug_invisible_without_flag(self, tmp_path):
        # Same stream as the mutation smoke: with the flag unset the
        # planted bug's cases are all clean.
        report = run_campaign(budget=40, seed=0, engines=("rs_on_ss",))
        assert report.ok, report.describe()

    def test_load_counterexample_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_counterexample(str(path))
        path.write_text(json.dumps({"kind": "other"}), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_counterexample(str(path))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFuzzCLI:
    def test_fuzz_green_exit_zero(self, capsys):
        assert cli_main(["fuzz", "--budget", "12", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "12 cases" in out
        assert "all per-case oracles ok" in out

    def test_fuzz_engine_filter_and_jobs(self, capsys, tmp_path):
        code = cli_main(
            [
                "fuzz",
                "--budget",
                "8",
                "--seed",
                "4",
                "--engine",
                "rounds",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert "rounds-rs, rounds-rws" in capsys.readouterr().out

    def test_fuzz_finds_injected_bug_exit_one(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(INJECT_ENV, "ss-drop-received")
        out_dir = tmp_path / "out"
        code = cli_main(
            [
                "fuzz",
                "--budget",
                "40",
                "--seed",
                "0",
                "--engine",
                "rs_on_ss",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "counterexample" in out
        files = sorted(out_dir.glob("*.json"))
        assert files

        # Replay reproduces under the flag...
        assert cli_main(["replay", "--repro", str(files[0])]) == 0
        assert "reproduces" in capsys.readouterr().out

        # ...and reports clean once the injection is lifted.
        monkeypatch.delenv(INJECT_ENV)
        assert cli_main(["replay", "--repro", str(files[0])]) == 1
        assert "no longer reproduces" in capsys.readouterr().out

    def test_fuzz_rejects_unknown_injection(self, capsys, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "no-such-bug")
        assert cli_main(["fuzz", "--budget", "4"]) == 2
        assert "not a registered injection" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "random-rs", "--count", "20", "--check", "--run-dir"],
            ["mc", "agreement", "--algorithm", "floodset", "--n", "3",
             "--t", "1", "--run-dir"],
            ["fuzz", "--budget", "4", "--run-dir"],
            ["check", "floodset-rws"],
        ],
        ids=("sweep", "mc", "fuzz", "check"),
    )
    def test_every_command_rejects_unknown_injection(
        self, argv, capsys, monkeypatch, tmp_path
    ):
        # A mistyped mutant would run the real code under cache keys and
        # a manifest naming it: refused before anything is opened.
        monkeypatch.setenv(INJECT_ENV, "no-such-bug")
        runs = tmp_path / "runs"
        if argv[-1] == "--run-dir":
            argv = [*argv, str(runs)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error: ") == 1
        assert "'no-such-bug' is not a registered injection" in captured.err
        assert not runs.exists()

    def test_replay_requires_arguments(self, capsys):
        assert cli_main(["replay"]) == 2
        assert "provide a scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Hypothesis strategies (skip cleanly when the dependency is absent)
# ---------------------------------------------------------------------------


try:
    from hypothesis import given, settings

    from repro.fuzz.strategies import (
        failure_patterns,
        failure_scenarios,
        initial_values,
        rounds_requests,
    )

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    class TestHypothesisStrategies:
        @settings(max_examples=50, deadline=None, derandomize=True)
        @given(pattern=failure_patterns(n=5, max_failures=2, horizon=30))
        def test_patterns_respect_bounds(self, pattern):
            assert pattern.n == 5
            assert len(pattern.faulty) <= 2
            assert all(0 <= t <= 30 for t in pattern.crash_times.values())

        @settings(max_examples=50, deadline=None, derandomize=True)
        @given(
            scenario=failure_scenarios(
                n=4, t=2, max_round=3, allow_pending=True
            )
        )
        def test_scenarios_always_admissible(self, scenario):
            assert (
                validate_scenario(scenario, t=2, allow_pending=True) == []
            )

        @settings(max_examples=20, deadline=None, derandomize=True)
        @given(request=rounds_requests(model="RWS", n=4, t=1))
        def test_request_strategy_yields_runnable_cells(self, request):
            result = execute_request(request)
            assert result.num_rounds >= 1
            # Safe algorithm + admissible adversary: agreement holds.
            decided = {value for _, value in result.decisions.values()}
            assert len(decided) <= 1

        @settings(max_examples=30, deadline=None, derandomize=True)
        @given(values=initial_values(6, domain=("a", "b")))
        def test_initial_values_shape(self, values):
            assert len(values) == 6
            assert set(values) <= {"a", "b"}
