"""``engine="vector"``: a second name for the round executor.

The name stays because the ledger's campaigns and pinned run ids use
it.  These tests pin what the name promises — a ``vector`` cell, batch
or sweep equals its ``rounds`` twin in everything but the cache key
and run id — and check the round executor itself against the §4
reference semantics in :mod:`tests.reference.rounds`, exhaustively
over small scenario spaces.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.rounds.enumeration import all_scenarios
from repro.runtime import (
    ExecutionRequest,
    ResultCache,
    execute_batch,
    execute_request,
    make_algorithm,
    run_space,
)
from repro.runtime.space import space_by_name, vectorized_space
from repro.vector import backend_name
from repro.workloads import crash_mid_broadcast, failure_free
from tests.reference import rounds as reference
from tests.reference.validators import (
    check_round_synchrony,
    check_weak_round_synchrony,
)
from tests.spaces import space_with

#: Every registered space of round-executor cells.
ROUND_SPACES = ("oracle-sweep", "e10-lambda", "random-rs", "random-rws")

#: The algorithms of the exhaustive block, each in the model it is
#: written for.
KERNEL_ALGORITHMS = [
    ("floodset", "RS"),
    ("floodset-ws", "RWS"),
    ("f-opt", "RS"),
    ("f-opt-ws", "RWS"),
    ("a1", "RS"),
]


@pytest.fixture(params=["python"])
def backend(request):
    """A single-valued parametrisation: it only keeps the ``[python]``
    test ids the recorded test floor names; drop it once ids may
    change."""
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


def _wire(result):
    """A result's every observable: name, key, the events one by one,
    the folded metrics and the outcome fields."""
    return {
        "name": result.name,
        "request_key": result.request_key,
        "events": [event.to_dict() for event in result.events],
        "metrics": result.metrics,
        **result.outcome_dict(),
    }


def _result_body(result):
    """:func:`_wire` minus the request key (the engine name is part of
    the request, so twins' keys differ by design)."""
    body = _wire(result)
    del body["request_key"]
    return body


def _assert_twin_parity(vector_result, object_result):
    """Byte parity on everything except the request key."""
    assert _result_body(vector_result) == _result_body(object_result)
    assert vector_result.request_key != object_result.request_key


def _assert_matches_reference(request: ExecutionRequest, result) -> None:
    """The engine's decisions are the reference's, and the reference
    run satisfies its model's synchrony property."""
    algorithm = make_algorithm(request.algorithm)
    run = reference.run(
        algorithm,
        request.values,
        request.scenario,
        t=request.t,
        model=request.model,
        rounds=request.max_rounds,
    )
    synchrony = (
        check_round_synchrony
        if request.model == "RS"
        else check_weak_round_synchrony
    )
    assert synchrony(run) == [], request
    assert result.decisions == run.decisions(algorithm), request


class TestRegisteredSpaceGoldens:
    """Every registered round space, vector vs rounds, checked."""

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
        space = space_with(name, count=40, seed=7)
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
        ), f"backend {backend} diverged from the rounds engine"


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
        assert [_wire(r) for r in batched] == [_wire(r) for r in singles]

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
            assert _wire(result) == _wire(single)

    @pytest.mark.parametrize("algorithm,model", KERNEL_ALGORITHMS)
    def test_kernel_algorithms_match_object_twin(
        self, backend, algorithm, model
    ):
        for scenario in (failure_free(3), crash_mid_broadcast(3)):
            request = _vector_request(
                f"ref-{algorithm}",
                algorithm=algorithm,
                model=model,
                scenario=scenario,
            )
            _assert_matches_reference(request, execute_request(request))


class TestExhaustiveTwinParity:
    """Every cell of a small scenario space, for each algorithm in both
    models: the engine decides what the reference semantics decides.
    (3,1) is crossed with all four ``validate`` x ``run_all_rounds``
    settings; the larger spaces deal the four settings out round-robin,
    and their RWS legs are truncated (``max_pending_sets``, and a
    stride for n=4) to keep the suite's wall time — (3,2) RWS alone has
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
                    continue  # A1 is a t=1 algorithm
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
        for cell, result in zip(cells, execute_batch(cells)):
            _assert_matches_reference(cell, result)

    def test_value_domain_wider_than_a_machine_word(self):
        # 65 distinct values decide the reference's minimum.
        request = _vector_request(
            "wide",
            algorithm="floodset",
            model="RS",
            values=tuple(range(64, -1, -1)),
            scenario=crash_mid_broadcast(65, reached=(1, 7, 64)),
            max_rounds=3,
        )
        result = execute_request(request)
        assert {value for _, value in result.decisions.values()} == {0}
        _assert_matches_reference(request, result)


class TestFallback:
    """Algorithms, value domains and configuration errors that are
    not plain FloodSet cells: the same under either name."""

    def test_unregistered_algorithm_falls_back(self, backend):
        request = _vector_request("fb-copt", algorithm="c-opt", model="RS")
        _assert_twin_parity(
            execute_request(request),
            execute_request(_object_twin(request)),
        )

    def test_cross_type_values_fall_back(self, backend):
        # 0 == False: min() picks whichever the set construction keeps,
        # the same way under both names.
        request = _vector_request("fb-values", values=(0, False, 1))
        _assert_twin_parity(
            execute_request(request),
            execute_request(_object_twin(request)),
        )

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


class TestSweepPaths:
    def test_parallel_and_cached_sweeps_stay_byte_identical(
        self, tmp_path
    ):
        space = vectorized_space(space_by_name("e10-lambda"))
        golden = run_space(space_by_name("e10-lambda"))
        cold = run_space(space, jobs=2, cache=ResultCache(tmp_path))
        warm = run_space(space, jobs=2, cache=ResultCache(tmp_path))
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


def test_backend_name_is_python_for_the_ledger():
    # ledger/run.py records it as host metadata; nothing else calls it.
    assert backend_name() == "python"


#: Plain cells, a C_opt cell and a cross-type-equal value domain.
_TELEMETRY_CELLS = (
    dict(name="on-kernel"),
    dict(name="fb-algo", algorithm="c-opt", model="RS"),
    dict(name="on-kernel-1", values=(1, 1, 0)),
    dict(name="fb-domain", values=(0, False, 1)),
)


def _summary(tmp_path, space):
    from repro.obs.artifacts import RunDir, identity_for_requests
    from repro.obs.report import render_report, summarize_sweep
    from repro.runtime import SweepRunner

    requests = list(space.requests)
    run = RunDir.open(
        tmp_path / "runs",
        kind="sweep",
        name=space.name,
        identity=identity_for_requests(requests),
        cells=[(r.name, r.cache_key()) for r in requests],
        config={"space": space.name},
    )
    sweep = SweepRunner(
        cache=ResultCache(run.results_dir), check=True
    ).run(space)
    summary = summarize_sweep(run, sweep, completed_before=set())
    run.finalize(summary)
    return run.run_id, summary, render_report(run)


class TestFallbackTelemetry:
    """A ``vector`` cell, batch or sweep is its ``rounds`` twin's, but
    for the cache key and the run id: no fallback tag, no summary
    section of its own."""

    def test_single_request_paths_tag_the_reason(self, backend):
        for overrides in _TELEMETRY_CELLS:
            request = _vector_request(**overrides)
            result = execute_request(request)
            _assert_twin_parity(result, execute_request(_object_twin(request)))
            assert result.extra == {}

    def test_batch_path_tags_only_the_fallback_cells(self, backend):
        requests = [_vector_request(**cell) for cell in _TELEMETRY_CELLS]
        vector = execute_batch(requests)
        rounds = execute_batch([_object_twin(r) for r in requests])
        for vector_result, rounds_result in zip(vector, rounds):
            _assert_twin_parity(vector_result, rounds_result)

    def test_sweep_summary_aggregates_fallback_reasons(self, tmp_path):
        from repro.runtime import ScenarioSpace

        requests = list(
            vectorized_space(space_by_name("e10-lambda")).requests[:3]
        ) + [_vector_request(**cell) for cell in _TELEMETRY_CELLS]
        twins = [_object_twin(request) for request in requests]
        run_id, summary, _ = _summary(
            tmp_path / "vector", ScenarioSpace.explicit("telemetry", requests)
        )
        twin_id, twin_summary, _ = _summary(
            tmp_path / "rounds", ScenarioSpace.explicit("telemetry", twins)
        )
        assert run_id != twin_id
        assert "vector" not in summary
        assert _untimed(summary) == _untimed(twin_summary)

    def test_all_kernel_sweep_reports_zero_fallbacks(self, tmp_path):
        space = vectorized_space(space_by_name("e10-lambda"))
        run_id, summary, rendered = _summary(tmp_path / "vector", space)
        twin_id, twin_summary, twin_rendered = _summary(
            tmp_path / "rounds", space_by_name("e10-lambda")
        )
        assert _untimed(summary) == _untimed(twin_summary)
        assert "vector:" not in rendered
        assert _untimed_lines(rendered, run_id) == _untimed_lines(
            twin_rendered, twin_id
        )


def _untimed(summary):
    """``summary`` without its run id and wall-clock sections, its
    per-engine coverage rows under one engine name."""
    body = {
        key: value
        for key, value in summary.items()
        if key not in ("run_id", "spans", "slowest_cells")
    }
    coverage = dict(body["coverage"])
    coverage["by_engine"] = {
        "rounds" if engine == "vector" else engine: slot
        for engine, slot in coverage["by_engine"].items()
    }
    body["coverage"] = coverage
    return body


def _untimed_lines(rendered, run_id):
    """The report's lines above its wall-clock sections, run id and
    engine name blanked."""
    lines = rendered.replace(run_id, "RUN").splitlines()
    return [
        line.replace("  vector ", "  rounds ")
        for line in lines[: lines.index("spans:")]
    ]
