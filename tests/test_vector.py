"""The columnar vector engine (repro.vector) and its byte-parity contract.

The engine's one promise is differential: every ``engine="vector"``
cell must produce an event log, metrics state and decision map
*byte-identical* to the object round executor's — whether the cell runs
through the batched kernel or falls back per-cell.  These tests pin
that promise over every registered sweep space, exhaustively over small
scenario spaces for each plan kernel, over the ``execute_batch`` seam,
over the sweep's parallel and cached paths, and over a small fuzz
campaign whose replay oracle re-executes every vector case on the
object engine.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.fuzz import VECTOR_FUZZ_ENGINES, run_campaign
from repro.fuzz.campaign import resolve_engines
from repro.rounds.enumeration import all_scenarios
from repro.runtime import (
    ExecutionRequest,
    execute_batch,
    execute_request,
    has_vector_kernel,
    run_space,
)
from repro.runtime.space import space_by_name, vectorized_space
from repro.vector import backend_name, cell_domain, plan_for_request
from repro.workloads import crash_mid_broadcast, failure_free

#: Every registered space whose round cells the vector engine can take.
ROUND_SPACES = ("oracle-sweep", "e10-lambda", "random-rs", "random-rws")

#: The plan kernels, each in the model its object twin is written for.
KERNEL_ALGORITHMS = [
    ("floodset", "RS"),
    ("floodset-ws", "RWS"),
    ("f-opt", "RS"),
    ("f-opt-ws", "RWS"),
    ("a1", "RS"),
]


@pytest.fixture(params=["python"])
def backend(request):
    """There is one value kernel, so one run per test.  The
    single-valued parametrisation only keeps the ``[python]`` test ids
    the recorded test floor names; drop it once ids may change."""
    return request.param


def _vector_request(name="cell", **overrides):
    defaults = dict(
        name=name,
        engine="vector",
        algorithm="floodset-ws",
        values=(2, 0, 1),
        t=1,
        model="RWS",
        scenario=failure_free(3),
        max_rounds=4,
    )
    defaults.update(overrides)
    return ExecutionRequest(**defaults)


def _object_twin(request: ExecutionRequest) -> ExecutionRequest:
    return replace(request, engine="rounds")


def _assert_twin_parity(vector_result, object_result):
    """Byte parity on everything except the request key (the engine
    name is part of the request, so the keys differ by design)."""
    assert vector_result.decisions == object_result.decisions
    assert vector_result.latency == object_result.latency
    assert vector_result.num_rounds == object_result.num_rounds
    assert [event.to_json() for event in vector_result.events] == [
        event.to_json() for event in object_result.events
    ]
    assert vector_result.metrics == object_result.metrics
    assert vector_result.request_key != object_result.request_key


class TestRegisteredSpaceGoldens:
    """Every registered round space, vector vs object, checked."""

    @pytest.mark.parametrize("name", ROUND_SPACES)
    def test_merged_traces_byte_identical(self, name):
        base = run_space(space_by_name(name), check=True)
        vec = run_space(vectorized_space(space_by_name(name)), check=True)
        assert list(base.merged_jsonl_lines()) == list(
            vec.merged_jsonl_lines()
        )
        assert base.metrics.state() == vec.metrics.state()
        assert [r.decisions for r in base.results] == [
            r.decisions for r in vec.results
        ]
        assert [c.ok for c in base.checks] == [c.ok for c in vec.checks]

    @pytest.mark.parametrize("name", ROUND_SPACES)
    def test_vectorized_cells_are_replace_engine_vector(self, name):
        """vectorized_space copies a request field by field; a field it
        forgot would show here as an unequal request."""
        space = space_by_name(name, count=40, seed=7)
        for request, vector in zip(
            space.requests, vectorized_space(space).requests
        ):
            expected = (
                replace(request, engine="vector")
                if request.engine == "rounds"
                else request
            )
            assert vector == expected
            assert vector.cache_key() == expected.cache_key()

    def test_backends_agree(self, backend):
        base = run_space(space_by_name("e10-lambda"))
        vec = run_space(vectorized_space(space_by_name("e10-lambda")))
        assert list(base.merged_jsonl_lines()) == list(
            vec.merged_jsonl_lines()
        ), f"backend {backend} diverged from the object engine"


class TestBatchSeam:
    def test_execute_batch_matches_per_cell_execution(self, backend):
        cells = [
            _vector_request(f"batch-{i:02d}", values=values)
            for i, values in enumerate(
                [(0, 0, 0), (0, 1, 2), (2, 2, 1), (1, 0, 1)]
            )
        ]
        batched = execute_batch(cells)
        singles = [execute_request(cell) for cell in cells]
        assert [r.to_dict() for r in batched] == [
            r.to_dict() for r in singles
        ]

    def test_batch_preserves_input_order_across_engines(self):
        mixed = [
            _vector_request("v-0"),
            _object_twin(_vector_request("r-0")),
            _vector_request(
                "v-1",
                algorithm="a1",
                model="RS",
                scenario=crash_mid_broadcast(3),
            ),
            _vector_request("v-2", values=(1, 1, 0)),
        ]
        results = execute_batch(mixed)
        assert [r.name for r in results] == [r.name for r in mixed]
        for request, result in zip(mixed, results):
            single = execute_request(request)
            assert result.to_dict() == single.to_dict()

    @pytest.mark.parametrize("algorithm,model", KERNEL_ALGORITHMS)
    def test_kernel_algorithms_match_object_twin(
        self, backend, algorithm, model
    ):
        for scenario in (failure_free(3), crash_mid_broadcast(3)):
            request = _vector_request(
                f"twin-{algorithm}",
                algorithm=algorithm,
                model=model,
                scenario=scenario,
            )
            _assert_twin_parity(
                execute_request(request),
                execute_request(_object_twin(request)),
            )


def _result_body(result):
    """``to_dict()`` minus the request key (the engine name is part of
    the request, so twins' keys differ by design)."""
    body = result.to_dict()
    del body["request_key"]
    return body


class TestExhaustiveTwinParity:
    """Every cell of a small scenario space, on every plan kernel in
    both models: the vector result equals its rounds twin's.  (3,1) is
    crossed with all four ``validate`` x ``run_all_rounds`` settings;
    the larger spaces deal the four settings out round-robin, and
    their RWS legs are truncated (``max_pending_sets``, and a stride
    for n=4) to keep the suite's wall time — (3,2) RWS alone has
    26 227 scenarios."""

    PARAMS = [
        (("run_all_rounds", rar), ("validate", validate))
        for rar in (False, True)
        for validate in (True, False)
    ]

    @pytest.mark.parametrize("model", ["RS", "RWS"])
    @pytest.mark.parametrize(
        "n,t,max_pending_sets,stride",
        [(3, 1, None, 1), (3, 2, 3, 1), (4, 2, 2, 9)],
        ids=["n3t1", "n3t2", "n4t2"],
    )
    def test_every_cell_matches_its_rounds_twin(
        self, n, t, max_pending_sets, stride, model
    ):
        scenarios = list(
            all_scenarios(
                n,
                t,
                max_round=t + 1,
                allow_pending=(model == "RWS"),
                max_pending_sets=max_pending_sets,
            )
        )[::stride]
        values = [tuple((pid * 2 + 1) % n for pid in range(n)), (1,) * n]
        cells = []
        for index, scenario in enumerate(scenarios):
            settings = (
                self.PARAMS
                if (n, t) == (3, 1)
                else [self.PARAMS[index % len(self.PARAMS)]]
            )
            for algorithm, _ in KERNEL_ALGORITHMS:
                if algorithm == "a1" and t != 1:
                    continue  # A1 is a t=1 algorithm; see TestFallback
                for params in settings:
                    cells.append(
                        _vector_request(
                            f"x-{index}-{algorithm}",
                            algorithm=algorithm,
                            model=model,
                            t=t,
                            values=values[index % len(values)],
                            scenario=scenario,
                            max_rounds=t + 2,
                            params=params,
                        )
                    )
        results = execute_batch(cells)
        assert not any("vector_fallback" in r.extra for r in results)
        for cell, result in zip(cells, results):
            twin = execute_request(_object_twin(cell))
            assert _result_body(result) == _result_body(twin), cell

    def test_value_domain_wider_than_a_machine_word(self):
        # 65 distinct values: one more than fits a 64-bit mask, the one
        # input the retired numpy kernel routed differently.  Python
        # ints have no width, so the cell stays on the kernel.
        request = _vector_request(
            "wide",
            algorithm="floodset",
            model="RS",
            values=tuple(range(64, -1, -1)),
            scenario=crash_mid_broadcast(65, reached=(1, 7, 64)),
            max_rounds=3,
        )
        (batched,) = execute_batch([request])
        assert "vector_fallback" not in batched.extra
        assert set(v for _, v in batched.decisions.values()) == {0}
        twin = execute_request(_object_twin(request))
        assert _result_body(batched) == _result_body(twin)
        assert execute_request(request).to_dict() == batched.to_dict()


class TestFallback:
    """Cells the kernel cannot take run the object engine, exactly."""

    def test_unregistered_algorithm_falls_back(self, backend):
        assert not has_vector_kernel("c-opt")
        request = _vector_request("fb-copt", algorithm="c-opt", model="RS")
        assert plan_for_request(request) is None
        _assert_twin_parity(
            execute_request(request),
            execute_request(_object_twin(request)),
        )

    def test_cross_type_values_fall_back(self, backend):
        # 0 == False, so min() parity depends on set-construction
        # order; the kernel refuses the domain and the object engine
        # runs the cell instead.
        values = (0, False, 1)
        assert cell_domain(values) is None
        request = _vector_request("fb-values", values=values)
        _assert_twin_parity(
            execute_request(request),
            execute_request(_object_twin(request)),
        )

    def test_cell_domain_guards(self):
        assert cell_domain((2, 0, 1, 1)) == [0, 1, 2]
        assert cell_domain(("b", "a")) == ["a", "b"]
        assert cell_domain((0, None, 1)) is None
        assert cell_domain((0.0, float("nan"))) is None
        assert cell_domain((1, "a")) is None  # unsortable
        assert cell_domain(([1], [2])) is None  # unhashable

    def test_fallback_reproduces_configuration_errors(self):
        kwargs = dict(
            algorithm="a1",
            model="RS",
            t=2,
            scenario=failure_free(4),
            values=(0, 1, 1, 0),
        )
        with pytest.raises(ConfigurationError) as via_object:
            execute_request(
                _object_twin(_vector_request("err-rounds", **kwargs))
            )
        with pytest.raises(ConfigurationError) as via_vector:
            execute_request(_vector_request("err-vector", **kwargs))
        assert str(via_vector.value) == str(via_object.value)

    def test_kernel_registry_honours_envelopes(self):
        assert has_vector_kernel("floodset")
        assert has_vector_kernel("a1", n=3, t=1)
        assert not has_vector_kernel("a1", n=3, t=2)
        assert not has_vector_kernel("c-opt-ws")


class TestSweepPaths:
    def test_parallel_and_cached_sweeps_stay_byte_identical(
        self, tmp_path
    ):
        space = vectorized_space(space_by_name("e10-lambda"))
        golden = run_space(space_by_name("e10-lambda"))
        cold = run_space(space, jobs=2, cache=str(tmp_path))
        warm = run_space(space, jobs=2, cache=str(tmp_path))
        assert cold.executed == cold.total and cold.cached == 0
        assert warm.executed == 0 and warm.cached == warm.total
        for result in (cold, warm):
            assert list(result.merged_jsonl_lines()) == list(
                golden.merged_jsonl_lines()
            )

    def test_vector_cells_share_profile_telemetry(self):
        space = vectorized_space(space_by_name("e10-lambda"))
        swept = run_space(space, jobs=1)
        profiles = [r.extra.get("profile") for r in swept.results]
        assert all(p is not None for p in profiles)
        assert all(p["duration_s"] >= 0.0 for p in profiles)


class TestVectorFuzz:
    def test_engine_alias_resolves_to_both_streams(self):
        assert resolve_engines(("vector",)) == VECTOR_FUZZ_ENGINES
        assert set(VECTOR_FUZZ_ENGINES) == {"vector-rs", "vector-rws"}

    def test_campaign_is_clean(self):
        report = run_campaign(
            budget=24, seed=3, engines=("vector",), shrink_failures=False
        )
        assert report.ok, report.describe()
        assert report.executed == 24


def test_backend_name_is_python_for_the_ledger():
    # ledger/run.py records it as host metadata; nothing else calls it.
    assert backend_name() == "python"


class TestFallbackTelemetry:
    """Fallbacks are parity-safe but must be *visible*: each object-run
    cell carries ``extra["vector_fallback"]`` and the sweep summary
    aggregates the reasons, so a silently-degraded vector campaign
    shows up in `repro report` instead of just running slow."""

    def test_single_request_paths_tag_the_reason(self, backend):
        from repro.vector.engine import (
            FALLBACK_DOMAIN,
            FALLBACK_UNSUPPORTED,
        )

        unsupported = execute_request(
            _vector_request("fb-algo", algorithm="c-opt", model="RS")
        )
        assert unsupported.extra["vector_fallback"] == FALLBACK_UNSUPPORTED
        domain = execute_request(
            _vector_request("fb-domain", values=(0, False, 1))
        )
        assert domain.extra["vector_fallback"] == FALLBACK_DOMAIN
        kernel = execute_request(_vector_request("on-kernel"))
        assert "vector_fallback" not in kernel.extra

    def test_batch_path_tags_only_the_fallback_cells(self, backend):
        from repro.vector.engine import (
            FALLBACK_DOMAIN,
            FALLBACK_UNSUPPORTED,
        )

        requests = [
            _vector_request("b-kernel-0"),
            _vector_request("b-algo", algorithm="c-opt", model="RS"),
            _vector_request("b-kernel-1", values=(1, 1, 0)),
            _vector_request("b-domain", values=(0, False, 1)),
        ]
        results = execute_batch(requests)
        reasons = [r.extra.get("vector_fallback") for r in results]
        assert reasons == [
            None,
            FALLBACK_UNSUPPORTED,
            None,
            FALLBACK_DOMAIN,
        ]

    def test_sweep_summary_aggregates_fallback_reasons(self, tmp_path):
        from repro.obs.artifacts import RunDir, identity_for_requests
        from repro.obs.report import render_report, summarize_sweep
        from repro.runtime import ResultCache, ScenarioSpace, SweepRunner

        requests = list(
            vectorized_space(space_by_name("e10-lambda")).requests[:3]
        ) + [
            _vector_request("fb-algo", algorithm="c-opt", model="RS"),
            _vector_request("fb-domain", values=(0, False, 1)),
        ]
        space = ScenarioSpace.explicit("vector-telemetry", requests)
        run = RunDir.open(
            tmp_path / "runs",
            kind="sweep",
            name=space.name,
            identity=identity_for_requests(requests),
            cells=[(r.name, r.cache_key()) for r in requests],
            config={"space": space.name},
        )

        def on_cell(request, result):
            run.record_cell(
                name=request.name,
                key=result.request_key,
                cached=result.cached,
                engine=request.engine,
                algorithm=request.algorithm,
                latency=result.latency,
                num_rounds=result.num_rounds,
                events=len(result.events),
            )

        sweep = SweepRunner(
            cache=ResultCache(run.results_dir), on_cell=on_cell
        ).run(space)
        summary = summarize_sweep(run, sweep, completed_before=set())
        run.finalize(summary)

        assert summary["vector"] == {
            "cells": 5,
            "kernel": 3,
            "fallbacks": {
                "unsupported-algorithm": 1,
                "value-domain": 1,
            },
            "fallback_cells": ["fb-algo", "fb-domain"],
        }
        rendered = render_report(run)
        assert "3/5 cells on the kernel" in rendered
        assert "2 object fallback(s)" in rendered

    def test_all_kernel_sweep_reports_zero_fallbacks(self, tmp_path):
        from repro.obs.artifacts import RunDir, identity_for_requests
        from repro.obs.report import summarize_sweep
        from repro.runtime import ScenarioSpace, SweepRunner

        requests = list(
            vectorized_space(space_by_name("e10-lambda")).requests[:4]
        )
        space = ScenarioSpace.explicit("vector-clean", requests)
        run = RunDir.open(
            tmp_path / "runs",
            kind="sweep",
            name=space.name,
            identity=identity_for_requests(requests),
            cells=[(r.name, r.cache_key()) for r in requests],
            config={"space": space.name},
        )
        sweep = SweepRunner().run(space)
        summary = summarize_sweep(run, sweep, completed_before=set())
        assert summary["vector"]["kernel"] == 4
        assert summary["vector"]["fallbacks"] == {}
        assert summary["vector"]["fallback_cells"] == []
