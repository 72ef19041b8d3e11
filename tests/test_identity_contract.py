"""Equal adversaries are one object — enforced by count, not by clock.

The result path memoizes on instances in two places: a request's
canonical form keeps the scenario's serialized fragment on the
``FailureScenario`` instance, and every per-template analysis (the
oracle's value-free checkers, the causal summary, the merged-trace
parts) is memoized on the ``TraceTemplate`` *instance*.  Neither is
correct only when objects are shared — both just get slow — so nothing
fails loudly when a builder stops sharing.  These tests count the work
instead.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.obs.artifacts import RunDir
from repro.obs.report import summarize_sweep, summary_problems
from repro.runtime import SPACE_FACTORIES, SweepRunner, space_by_name
from repro.runtime import request as request_module
from repro.runtime.space import vectorized_space
from repro.vector.engine import execute_vector_batch
from tests.reference_keys import reference_cache_key

#: The ledger's campaign space: 2000 cells, 109 adversaries, 73 traces.
LEDGER_CELLS, LEDGER_ADVERSARIES, LEDGER_TEMPLATES = 2000, 109, 73


def _ledger_space():
    return vectorized_space(
        space_by_name("random-rs", count=LEDGER_CELLS, seed=7)
    )


class TestSpacesInternTheirAdversaries:
    @pytest.mark.parametrize("seed", (7, 23))
    @pytest.mark.parametrize("name", sorted(SPACE_FACTORIES))
    def test_one_instance_per_distinct_scenario(self, name, seed):
        requests = space_by_name(name, count=200, seed=seed).requests
        instances = {id(request.scenario) for request in requests}
        assert len(instances) == len({request.scenario for request in requests})

    def test_the_ledger_space_repeats_few_adversaries(self):
        requests = _ledger_space().requests
        assert len(requests) == LEDGER_CELLS
        assert len({id(r.scenario) for r in requests}) == LEDGER_ADVERSARIES

    def test_interning_is_local_to_the_builder_call(self):
        first = space_by_name("random-rs", count=50, seed=7).requests
        again = space_by_name("random-rs", count=50, seed=7).requests
        assert [r.scenario for r in first] == [r.scenario for r in again]
        assert not {id(r.scenario) for r in first} & {
            id(r.scenario) for r in again
        }


class TestBatchKeysSerializeOncePerAdversary:
    def test_scenario_dumps_are_bounded_by_the_distinct_count(self, monkeypatch):
        calls = []
        original = request_module.scenario_to_dict

        def counting(scenario):
            calls.append(scenario)
            return original(scenario)

        requests = _ledger_space().requests
        monkeypatch.setattr(request_module, "scenario_to_dict", counting)
        keys = [request.cache_key() for request in requests]
        work = {request.work_key() for request in requests}
        # Once per scenario instance, whatever asks for the form.
        assert 0 < len(calls) <= LEDGER_ADVERSARIES
        assert len(work) == LEDGER_ADVERSARIES
        monkeypatch.undo()
        assert keys == [reference_cache_key(request) for request in requests]

    def test_unshared_equal_scenarios_key_the_same(self):
        requests = _ledger_space().requests
        unshared = [
            replace(request, scenario=replace(request.scenario))
            for request in requests[:50]
        ]
        assert len({id(r.scenario) for r in unshared}) == 50
        assert [r.cache_key() for r in unshared] == [
            r.cache_key() for r in requests[:50]
        ]


class TestTemplatesAreInternedPerCallAndPerDigest:
    def test_one_instance_per_digest_within_a_call(self):
        results = execute_vector_batch(_ledger_space().requests)
        assert None not in results
        instances = {id(result.template) for result in results}
        digests = {result.template.digest for result in results}
        assert len(instances) == len(digests) == LEDGER_TEMPLATES

    def test_two_calls_share_no_instance(self):
        requests = _ledger_space().requests[:200]
        first = execute_vector_batch(requests)
        again = execute_vector_batch(requests)
        assert [r.template.digest for r in first] == [
            r.template.digest for r in again
        ]
        assert not {id(r.template) for r in first} & {
            id(r.template) for r in again
        }
        # ... so one batch's analyses never reach the next one's results.
        first[0].template.remember("probe", lambda: "first")
        assert "probe" not in again[0].template.memo

    def test_a_cold_summary_analyses_each_distinct_trace_once(
        self, tmp_path, monkeypatch
    ):
        from repro.obs import critical

        calls = []
        original = critical.causal_summary

        def counting(events, **kwargs):
            calls.append(len(events))
            return original(events, **kwargs)

        monkeypatch.setattr(critical, "causal_summary", counting)
        # Vector cells cite one template per distinct trace; rounds
        # cells of one run share the template their run factored.
        rounds = space_by_name("random-rs", count=LEDGER_CELLS, seed=7)
        for space, analyses in (
            (_ledger_space(), LEDGER_TEMPLATES),
            (rounds, LEDGER_ADVERSARIES),
        ):
            calls.clear()
            run = RunDir.open(
                tmp_path / "runs", kind="sweep", name=space.name,
                identity=sorted(r.cache_key() for r in space.requests),
            )
            sweep = SweepRunner().run(space)
            assert sweep.executed == LEDGER_CELLS
            summary = summarize_sweep(run, sweep, completed_before=set())
            assert summary_problems(summary) == []
            assert len(summary["causal"]["cells"]) == LEDGER_CELLS
            assert len(calls) == analyses
