"""Equal cells are one execution — checked against the per-cell loop.

A sweep groups its cache misses by *work key* (the request's canonical
form with ``name`` left out) and executes, judges and serializes one
representative per group; every other cell of the group is handed the
representative's result under its own name.  The per-cell path that
did this work 2000 times for 109 runs is gone from ``src/`` and lives
on here as the reference: ``[execute_request(r) for r in space]`` and
``check_cell`` per cell are what every grouped result must equal.

The oracle runs once per *content*: cells whose traces are one
template object with equal holes, and whose requests agree in what the
verdict reads, take one judgement — a run's twins, and a warm leg's
stored cells of one trace.  ``check_cell`` on each cell alone, over its
plain events, is the reference every shared verdict must equal.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cli.main import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import summarize_sweep, summary_problems
from repro.runtime import (
    SPACE_FACTORIES,
    ExecutionRequest,
    ExecutionResult,
    ScenarioSpace,
    SweepRunner,
    check_cell,
    execute_request,
    run_space,
    space_by_name,
)
from repro.runtime import request as request_module
from repro.runtime import sweep as sweep_module
from repro.runtime.campaign import CampaignLeg
from repro.runtime.space import named_cell, vectorized_space
from repro.workloads import failure_free
from tests.reference_keys import reference_work_key
from tests.spaces import space_with

SPACES = sorted(SPACE_FACTORIES)


def _space(name, engine="rounds", **kwargs):
    space = space_with(name, **kwargs)
    return vectorized_space(space) if engine == "vector" else space


def _distinct(requests) -> int:
    return len({reference_work_key(request) for request in requests})


def _contents(requests, results) -> int:
    """Distinct (trace content, verdict inputs) by template *digest*,
    types included: the oracle runs the sweep must make wherever equal
    content is one template object (a store)."""
    return len({
        (
            result.template.digest,
            result.holes,
            tuple(map(type, result.holes)),
            request.values,
            tuple(map(type, request.values)),
            request.model,
            request.engine,
            request.expect_disagreement,
            request.check_consensus,
        )
        for request, result in zip(requests, results)
    })


def _alone(request, result):
    """The reference verdict: ``check_cell`` on this cell's plain events,
    past every template memo."""
    return check_cell(request, SimpleNamespace(events=list(result.events)))


@pytest.fixture
def counted(monkeypatch):
    """Calls the sweep makes to the engine seam and to the oracle."""
    calls: Counter = Counter()

    def counting(name):
        original = getattr(sweep_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "execute_batch":
                calls["batch_rows"] += len(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(sweep_module, name, wrapper)

    for name in ("execute_request", "execute_batch", "check_cell"):
        counting(name)
    return calls


# ---------------------------------------------------------------------------
# (a) every grouped cell equals a fresh execution of its own request
# ---------------------------------------------------------------------------


class TestGroupedCellsEqualThePerCellLoop:
    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    @pytest.mark.parametrize("seed", (7, 23))
    @pytest.mark.parametrize("name", SPACES)
    def test_each_cell_is_its_own_requests_result(self, name, seed, engine):
        space = _space(name, engine, count=120, seed=seed)
        sweep = run_space(space, check=True)
        assert sweep.distinct == _distinct(space.requests)
        for request, result, verdict in zip(
            space.requests, sweep.results, sweep.checks
        ):
            fresh = execute_request(request)
            assert result.name == fresh.name == request.name
            assert result.request_key == fresh.request_key
            assert list(result.events) == list(fresh.events), request.name
            assert result.metrics == fresh.metrics
            assert result.decisions == fresh.decisions
            assert (result.latency, result.num_rounds) == (
                fresh.latency, fresh.num_rounds
            )
            assert not result.cached
            assert verdict == check_cell(request, fresh), request.name

    def test_the_ledger_stream_saturates_its_space(self):
        for seed in (7, 23):
            space = _space("random-rs", count=2000, seed=seed)
            assert _distinct(space.requests) == 109
            assert len({r.work_key() for r in space.requests}) == 109


# ---------------------------------------------------------------------------
# (b) exact run counts
# ---------------------------------------------------------------------------


class TestRunCounts:
    def test_random_rs_300_is_92_runs_and_92_judgements(self, counted):
        sweep = run_space(_space("random-rs", count=300, seed=7), check=True)
        # The rounds engine factors a template per run, so its contents
        # are its runs.
        assert counted["execute_request"] == 92
        assert counted["check_cell"] == sweep.judged == 92
        assert (sweep.total, sweep.executed, sweep.distinct) == (300, 300, 92)
        assert len(sweep.checks) == 300 and sweep.checks_ok
        # stdout is the parent's, byte for byte; the figure is a line
        # of its own.
        assert sweep.describe().splitlines() == [
            "space 'random-rs': 300 scenarios; executed 300, cached 0",
            "oracle: 300/300 cells clean",
        ]
        assert sweep.describe_sharing() == (
            "space 'random-rs': 300 scenarios (92 distinct); "
            "equal cells shared a run"
        )

    def test_the_batch_kernel_sees_the_representatives_only(
        self, counted, monkeypatch
    ):
        # execute_cells runs the first cell of each equal-cell group and
        # nothing else, on either spelling of the round executor.
        space = _space("random-rs", "vector", count=300, seed=7)
        executed = []
        counting = sweep_module.execute_request

        def recording(request):
            executed.append(request.name)
            return counting(request)

        monkeypatch.setattr(sweep_module, "execute_request", recording)
        sweep = run_space(space, check=True)
        firsts: dict[str, str] = {}
        for request in space.requests:
            firsts.setdefault(request.work_key(), request.name)
        assert executed == list(firsts.values())
        assert counted["execute_request"] == 92
        assert counted["execute_batch"] == 0
        assert counted["check_cell"] == sweep.judged == 92
        assert sweep.distinct == 92 and sweep.checks_ok

    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    def test_a_twin_costs_no_canonical_form_and_no_counter_fold(
        self, engine, counted, monkeypatch
    ):
        # The ledger's stream: 2000 cells, 109 runs.  Keying a twin
        # reuses its run's canonical form, and the metrics fold adds a
        # run's counters once, times its cells.
        space = _space("random-rs", engine, count=2000, seed=7)
        calls: Counter = Counter()
        form = request_module._canonical_form
        counter = MetricsRegistry.counter

        def building(*args):
            calls["forms"] += 1
            return form(*args)

        def fetching(registry, name):
            # Every run's state counts its rounds, so this counter is
            # fetched once per counter fold.
            calls["counter folds"] += name == "rounds.started"
            return counter(registry, name)

        monkeypatch.setattr(request_module, "_canonical_form", building)
        monkeypatch.setattr(MetricsRegistry, "counter", fetching)
        sweep = run_space(space, check=True)
        assert calls == {"forms": 109, "counter folds": 109}
        assert counted["execute_request"] == counted["check_cell"] == 109
        assert (sweep.total, sweep.distinct) == (2000, 109) and sweep.checks_ok
        assert sweep.metrics.counter("rounds.started").value == sum(
            result.metrics["counters"]["rounds.started"]
            for result in sweep.results
        )

    def test_a_space_without_twins_is_all_runs(self, counted):
        sweep = run_space(_space("e10-lambda"), check=True)
        assert counted["execute_request"] == counted["check_cell"] == 32
        assert sweep.distinct == sweep.total == 32
        assert sweep.describe_sharing() is None

    def test_a_resumed_leg_groups_only_its_misses(self, tmp_path, counted):
        space = _space("random-rs", count=300, seed=7)
        half = ScenarioSpace.explicit(space.name, space.requests[:150])
        missed = space.requests[150:]

        def leg():
            return CampaignLeg(
                str(tmp_path / "runs"), kind="sweep", name=space.name,
                requests=space.requests, config={"space": space.name},
            )

        first = leg()
        with first:  # left without finalize: interrupted
            SweepRunner(cache=first.cache, on_run=first.on_run).run(half)
        ran_first = counted["execute_request"]
        assert ran_first == _distinct(half.requests)

        second = leg()
        assert len(second.completed_before) == 150
        with second:
            sweep = SweepRunner(
                cache=second.cache, on_run=second.on_run, check=True
            ).run(space, keys=second.keys)
            summary = second.finalize(
                lambda run_dir: summarize_sweep(
                    run_dir, sweep, completed_before=second.completed_before
                )
            )
        # Twins of a stored cell are misses like any other: the store is
        # keyed by cell, so only the misses are grouped among themselves.
        assert counted["execute_request"] - ran_first == _distinct(missed)
        assert summary["resume"] == {
            "completed_before": 150, "executed": 150, "cached": 150,
            "re_executed": 0,
        }
        assert summary["coverage"]["distinct"] == 150 + _distinct(missed)
        assert sweep.distinct == summary["coverage"]["distinct"]
        assert summary["oracle"] == {
            "checked": 300, "judged": sweep.judged, "failed": 0,
            "failed_cells": [],
        }
        assert 0 < sweep.judged < 300
        assert not summary_problems(summary)
        audit = [
            json.loads(line)
            for line in (second.path / "metrics.jsonl").read_text().splitlines()
        ]
        assert Counter(
            record["cell"] for record in audit if record["t"] == "cell"
        ) == Counter(
            [r.name for r in half.requests] + [r.name for r in space.requests]
        )


# ---------------------------------------------------------------------------
# (c) the work key speaks the cache key's dialect, not Python's
# ---------------------------------------------------------------------------


def _cell(name, values, scenario, **overrides):
    fields = dict(
        name=name, engine="rounds", algorithm="floodset-ws", values=values,
        t=1, model="RWS", scenario=scenario, max_rounds=4,
        check_consensus=False,
    )
    fields.update(overrides)
    return ExecutionRequest(**fields)


class TestHostileTwins:
    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    @pytest.mark.parametrize(
        "left, right",
        [((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0)), ((1, 1, 1), (True, True, True))],
        ids=("negative-zero", "one-vs-true"),
    )
    def test_equal_in_python_is_not_equal_on_the_wire(
        self, left, right, engine, counted
    ):
        scenario = failure_free(3)
        assert left == right
        space = ScenarioSpace.explicit("hostile", [
            _cell("left", left, scenario, engine=engine),
            _cell("right", right, scenario, engine=engine),
            _cell("left-again", left, scenario, engine=engine),
        ])
        assert space.requests[0] == replace(space.requests[1], name="left")
        sweep = run_space(space, check=True)
        assert sweep.distinct == 2
        assert counted["execute_request"] + counted["batch_rows"] == 2
        decided = [
            {event.to_json().split('"value": ')[1]
             for event in result.events if event.kind == "decide"}
            for result in sweep.results
        ]
        assert decided[0] == decided[2] != decided[1]
        assert sweep.results[0].events is sweep.results[2].events
        assert list(sweep.merged_jsonl_lines()) == [
            event.to_json() for event in sweep.merged_events()
        ]

    def test_every_per_cell_field_separates(self):
        scenario = failure_free(3)
        base = _cell("base", (0, 1, 1), scenario)
        variants = [
            replace(base, name="values", values=(1, 0, 1)),
            replace(base, name="flag", check_consensus=True),
            replace(base, name="expect", expect_disagreement=True),
            replace(base, name="engine", engine="vector"),
            replace(base, name="algorithm", algorithm="floodset"),
            replace(base, name="model", model="RS"),
            replace(base, name="horizon", max_rounds=5),
            replace(base, name="t", t=2),
            replace(base, name="params", params=(("run_all_rounds", True),)),
        ]
        keys = [r.work_key() for r in (base, *variants, replace(base, name="twin"))]
        assert len(set(keys)) == len(variants) + 1
        assert keys[0] == keys[-1]

    def test_equal_scenarios_held_as_two_instances_do_share(self, counted):
        one, other = failure_free(4), failure_free(4)
        assert one is not other and one == other
        space = ScenarioSpace.explicit("instances", [
            _cell("a", (0, 1, 1, 0), one),
            _cell("b", (0, 1, 1, 0), other),
        ])
        sweep = run_space(space, check=True)
        assert counted["execute_request"] == counted["check_cell"] == 1
        assert sweep.distinct == 1
        assert [r.name for r in sweep.results] == ["a", "b"]
        assert [r.request_key for r in sweep.results] == [
            request.cache_key() for request in space.requests
        ]

    def test_an_injected_bug_shares_equal_cells(self, monkeypatch, counted):
        """A mutant is deterministic too: its equal cells are one run,
        as many runs as the real code's, and never one of the real
        code's (the injection is part of the canonical form)."""
        from repro.inject import INJECT_ENV

        space = _space("random-rs", count=40, seed=7)
        clean = run_space(space)
        clean_runs = counted["execute_request"]
        clean_keys = {r.cache_key() for r in space.requests}
        clean_work = {r.work_key() for r in space.requests}
        assert clean_runs == clean.distinct < 40

        monkeypatch.setenv(INJECT_ENV, "ss-drop-received")
        counted.clear()
        sweep = run_space(space, check=True)
        assert counted["execute_request"] == sweep.distinct == clean_runs
        assert counted["check_cell"] == clean_runs
        assert sweep.distinct == _distinct(space.requests)
        for request, result, verdict in zip(
            space.requests, sweep.results, sweep.checks
        ):
            fresh = execute_request(request)
            assert result.name == fresh.name == request.name
            assert result.request_key == fresh.request_key
            assert list(result.events) == list(fresh.events), request.name
            assert (result.metrics, result.decisions) == (
                fresh.metrics, fresh.decisions
            )
            assert verdict == check_cell(request, fresh), request.name
        injected_keys = {r.cache_key() for r in space.requests}
        assert injected_keys.isdisjoint(clean_keys)
        assert {r.work_key() for r in space.requests}.isdisjoint(clean_work)


# ---------------------------------------------------------------------------
# (d) one CellCheck per cell, whoever was judged
# ---------------------------------------------------------------------------


class TestVerdictsPerCell:
    def test_a_documented_disagreement_under_three_names(self, counted):
        cell = named_cell("floodset-rws").request
        names = ["first", "second", "third"]
        space = ScenarioSpace.explicit(
            "thrice", [replace(cell, name=name) for name in names]
        )
        sweep = run_space(space, check=True)
        assert counted["execute_request"] == counted["check_cell"] == 1
        assert [check.name for check in sweep.checks] == names
        assert sweep.checks_ok
        for check in sweep.checks:
            assert check.expected_disagreement and check.consensus_violations
            assert check.describe().startswith(f"{check.name}: ok (documented")
        assert len({id(check) for check in sweep.checks}) == 3

    def test_a_failing_trace_fails_every_twin(self, monkeypatch):
        original = sweep_module.execute_request

        def planted(request, **kwargs):
            result = original(request, **kwargs)
            return replace(
                result,
                events=[
                    replace(event, value=99) if event.kind == "decide" else event
                    for event in result.events
                ],
            )

        monkeypatch.setattr(sweep_module, "execute_request", planted)
        cell = space_by_name("e10-lambda").requests[0]
        names = [f"twin-{index}" for index in range(4)]
        space = ScenarioSpace.explicit(
            "planted", [replace(cell, name=name) for name in names]
        )
        sweep = run_space(space, check=True)
        failed = [check for check in sweep.checks if not check.ok]
        assert [check.name for check in failed] == names
        report = sweep.describe()
        assert "oracle: 0/4 cells clean" in report
        for name in names:
            assert f"{name}: FAIL" in report

    def test_results_built_elsewhere_are_judged_per_trace_object(self, counted):
        request = space_by_name("e10-lambda").requests[0]
        result = execute_request(request)
        twin = replace(request, name="twin")
        separate = replace(result, name="twin", events=list(result.events))
        shared = replace(result, name="twin")
        for other, judged in ((separate, 2), (shared, 1)):
            counted.clear()
            sweep = sweep_module.SweepResult.aggregate(
                "by-hand", [request, twin], [result, other],
                executed=2, check=True, cache=None,
            )
            assert counted["check_cell"] == judged
            assert [check.name for check in sweep.checks] == [
                request.name, "twin"
            ]


# ---------------------------------------------------------------------------
# (e) what twins share and what they own; who never shares
# ---------------------------------------------------------------------------


class TestSharingContract:
    def test_twins_share_the_trace_and_own_their_extra(self):
        space = _space("oracle-sweep", count=40, seed=7)
        emulation = next(
            r for r in space.requests if r.engine == "rs_on_ss"
        )
        space = ScenarioSpace.explicit(
            "twins", [*space.requests, replace(emulation, name="emulation-twin")]
        )
        sweep = run_space(space)
        groups: dict[int, list[ExecutionResult]] = {}
        for result in sweep.results:
            groups.setdefault(id(result.events), []).append(result)
        shared = [group for group in groups.values() if len(group) > 1]
        assert shared and sweep.distinct == len(groups)
        for first, *rest in shared:
            for twin in rest:
                assert twin.metrics is first.metrics
                assert twin.decisions is first.decisions
                assert twin.extra is not first.extra
                assert twin.extra["profile"] is not first.extra["profile"]
                # A run's wall is split evenly over the cells it served.
                assert twin.extra["profile"]["duration_s"] == pytest.approx(
                    first.extra["profile"]["duration_s"]
                )
                assert twin.extra["profile"]["spans"] == {}
            before = [json.dumps(twin.extra, sort_keys=True) for twin in rest]
            first.extra["profile"]["duration_s"] = -1.0
            first.extra["mine"] = True
            for value in first.extra.values():
                if isinstance(value, dict):
                    value["planted"] = True
            assert before == [
                json.dumps(twin.extra, sort_keys=True) for twin in rest
            ]
        original, twin = (
            result for result in sweep.results
            if result.name in (emulation.name, "emulation-twin")
        )
        assert original.events is twin.events
        assert "planted" not in twin.extra["induced_scenario"]


# ---------------------------------------------------------------------------
# (f) a pool ships representatives and changes no byte
# ---------------------------------------------------------------------------


def _cli_leg(tmp_path, tag, *extra):
    root, trace = tmp_path / f"runs-{tag}", tmp_path / f"{tag}.jsonl"
    argv = ["sweep", "random-rws", "--count", "300", "--seed", "7", "--check",
            "--run-dir", str(root), "--jsonl", str(trace), *extra]
    assert main(argv) == 0
    (path,) = root.glob("*/summary.json")
    return trace.read_bytes(), json.loads(path.read_text(encoding="utf-8"))


def _without_judged(section):
    return {key: value for key, value in section.items() if key != "judged"}


@pytest.mark.parametrize("engine", ("rounds", "vector"))
def test_jobs_2_equals_jobs_1(engine, tmp_path, capsys):
    serial, one = _cli_leg(tmp_path, "serial", "--engine", engine)
    pooled, two = _cli_leg(tmp_path, "pooled", "--engine", engine, "--jobs", "2")
    assert serial == pooled
    assert one["run_id"] == two["run_id"]
    # The store shares one template per digest, so equal traces of
    # different runs take one judgement between them.
    for summary in (one, two):
        assert 0 < summary["oracle"]["judged"] <= summary["coverage"]["distinct"]
    for section in ("coverage", "resume", "causal",
                    "latency_by_algorithm", "slo_verdicts"):
        assert one[section] == two[section], section
    assert _without_judged(one["oracle"]) == _without_judged(two["oracle"])
    assert 0 < one["coverage"]["distinct"] < 300
    assert not summary_problems(one) and not summary_problems(two)
    err = capsys.readouterr().err
    assert err.count(f"({one['coverage']['distinct']} distinct)") == 2


# ---------------------------------------------------------------------------
# (g) store hits are separate records that share templates per digest:
#     a warm leg judges each content once, and every verdict is still
#     its own cell's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ("rounds", "vector"))
def test_a_warm_run_judges_every_cell(engine, tmp_path, counted):
    space = _space("random-rs", engine, count=200, seed=23)
    store = str(tmp_path / "store")
    cold = SweepRunner(cache=store, check=True).run(space)
    assert counted["check_cell"] == cold.judged <= cold.distinct
    assert cold.distinct == _distinct(space.requests) < 200
    counted.clear()
    warm = SweepRunner(cache=store, check=True).run(space)
    assert (warm.executed, warm.cached, warm.distinct) == (0, 200, 200)
    contents = _contents(space.requests, warm.results)
    assert counted["check_cell"] == warm.judged == contents < cold.distinct
    assert counted["execute_request"] == counted["execute_batch"] == 0
    assert len({id(result.events) for result in warm.results}) == 200
    assert warm.checks == cold.checks
    assert warm.describe_sharing() is None
    assert list(warm.merged_jsonl_lines()) == list(cold.merged_jsonl_lines())


class TestEveryVerdictIsItsCellsOwn:
    """The per-cell reference loop: whichever cell's judgement a verdict
    was shared from, it equals ``check_cell`` on its own cell alone."""

    @pytest.mark.parametrize("leg", ("cold", "warm"))
    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    @pytest.mark.parametrize("seed", (7, 23))
    @pytest.mark.parametrize("name", SPACES)
    def test_shared_verdicts_equal_the_per_cell_oracle(
        self, name, seed, engine, leg, tmp_path, counted
    ):
        space = _space(name, engine, count=120, seed=seed)
        store = str(tmp_path / "store")
        sweep = SweepRunner(cache=store, check=True).run(space)
        if leg == "warm":
            counted.clear()
            sweep = SweepRunner(cache=store, check=True).run(space)
            assert sweep.executed == 0
        assert counted["check_cell"] == sweep.judged <= sweep.total
        if leg == "warm":
            assert sweep.judged == _contents(space.requests, sweep.results)
        for request, result, verdict in zip(
            space.requests, sweep.results, sweep.checks
        ):
            alone = _alone(request, result)
            assert verdict.name == request.name
            assert (
                verdict.ok,
                verdict.model_errors,
                verdict.consensus_violations,
                verdict.expected_disagreement,
                verdict.report,
            ) == (
                alone.ok,
                alone.model_errors,
                alone.consensus_violations,
                alone.expected_disagreement,
                alone.report,
            ), request.name


class TestTypeExactVerdictKeys:
    """Equal in Python is not equal in a report: ``0``/``False`` and
    ``0.0``/``-0.0`` holes and inputs never share a judgement, and an
    unhashable one keys its cell by trace object."""

    @pytest.mark.parametrize("leg", ("cold", "warm"))
    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    @pytest.mark.parametrize(
        "left, right, judged",
        [
            # exact types: the two twins of "left" share, "right" not
            ((0, 0, 0), (False, False, False), {"cold": 2, "warm": 2}),
            # floats: one judgement per trace object, which only the
            # cells of one run share
            ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), {"cold": 2, "warm": 3}),
        ],
        ids=("zero-vs-false", "negative-zero"),
    )
    def test_store_served_cells(
        self, left, right, judged, engine, leg, tmp_path, counted
    ):
        scenario = failure_free(3)
        space = ScenarioSpace.explicit("hostile", [
            _cell("left", left, scenario, engine=engine, check_consensus=True),
            _cell("right", right, scenario, engine=engine, check_consensus=True),
            _cell("left-again", left, scenario, engine=engine,
                  check_consensus=True),
        ])
        store = str(tmp_path / "store")
        sweep = SweepRunner(cache=store, check=True).run(space)
        if leg == "warm":
            counted.clear()
            sweep = SweepRunner(cache=store, check=True).run(space)
            # One template object behind all three stored cells.
            assert len({id(r.template) for r in sweep.results}) == 1
        assert counted["check_cell"] == sweep.judged == judged[leg]
        for request, result, verdict in zip(
            space.requests, sweep.results, sweep.checks
        ):
            assert verdict == _alone(request, result), request.name

    @pytest.mark.parametrize(
        "holes, values, judged",
        [
            (((0,), (0,)), ((0, 1, 1), (0, 1, 1)), 1),
            (((0,), (False,)), ((0, 1, 1), (0, 1, 1)), 2),
            (((0,), (0,)), ((0, 1, 1), (False, True, True)), 2),
            (((0.0,), (0.0,)), ((0, 1, 1), (0, 1, 1)), 2),
            (((0.0,), (-0.0,)), ((0, 1, 1), (0, 1, 1)), 2),
            (((0,), (0,)), ((0.0, 1, 1), (0.0, 1, 1)), 2),
            ((([0],), ([0],)), ((0, 1, 1), (0, 1, 1)), 2),
            (((0,), (0,)), (([0], 1, 1), ([0], 1, 1)), 2),
        ],
        ids=(
            "equal", "hole-zero-vs-false", "input-zero-vs-false",
            "float-holes", "hole-negative-zero", "float-input",
            "unhashable-hole", "unhashable-input",
        ),
    )
    def test_one_template_object_by_hand(self, holes, values, judged, counted):
        """Two cells citing one template object, built outside a sweep."""
        template = execute_request(
            _cell("seed", (0, 1, 1), failure_free(3))
        ).template
        width = len(template.positions)
        requests, results = [], []
        for index, (hole, inputs) in enumerate(zip(holes, values)):
            request = _cell(f"cell-{index}", inputs, failure_free(3),
                            check_consensus=True)
            requests.append(request)
            results.append(ExecutionResult(
                name=request.name, request_key=request.cache_key(),
                events=template.fill(hole * width),
            ))
        sweep = sweep_module.SweepResult.aggregate(
            "by-hand", requests, results, executed=2, check=True, cache=None,
        )
        assert counted["check_cell"] == sweep.judged == judged
        for request, result, verdict in zip(requests, results, sweep.checks):
            assert verdict == _alone(request, result), request.name


# ---------------------------------------------------------------------------
# The figure a user sees
# ---------------------------------------------------------------------------


def test_report_shows_the_distinct_runs(tmp_path, capsys):
    root = tmp_path / "runs"
    argv = ["sweep", "random-rs", "--count", "300", "--seed", "7",
            "--run-dir", str(root)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "300 scenarios; executed 300, cached 0" in captured.out
    assert "space 'random-rs': 300 scenarios (92 distinct)" in captured.err
    (summary_path,) = root.glob("*/summary.json")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["coverage"]["distinct"] == 92
    assert main(["report", str(root)]) == 0
    assert "coverage: 300/300 cells (100.0%), 92 distinct runs" in (
        capsys.readouterr().out
    )
    # No per-cell field: a twin's audit line is as long as anyone's.
    audit = [
        json.loads(line) for line in
        (summary_path.parent / "metrics.jsonl").read_text().splitlines()
    ]
    # Reported as each run's group arrives, so not in space order.
    assert sorted(record["cell"] for record in audit) == [
        f"random-rs-{index:03d}" for index in range(300)
    ]
    assert {frozenset(record) for record in audit} == {frozenset(audit[0])}
    for broken in (-1, 301, "92", 1.5):
        summary["coverage"]["distinct"] = broken
        assert any("distinct" in p for p in summary_problems(summary)), broken



def test_report_shows_the_judgements(tmp_path, capsys):
    root = tmp_path / "runs"
    argv = ["sweep", "random-rs", "--count", "300", "--seed", "7", "--check",
            "--engine", "vector", "--run-dir", str(root)]
    assert main(argv) == 0 and main(argv) == 0  # cold, then warm
    capsys.readouterr()
    (summary_path,) = root.glob("*/summary.json")
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    judged = summary["oracle"]["judged"]
    assert summary["resume"]["cached"] == 300
    assert 0 < judged < summary["coverage"]["distinct"] == 300
    assert main(["report", str(root)]) == 0
    assert f"oracle: 300 cells checked ({judged} judgements), clean" in (
        capsys.readouterr().out
    )
    assert not summary_problems(summary)
    for broken in (301, 0, -1, "73", None):
        summary["oracle"]["judged"] = broken
        assert any("judged" in p for p in summary_problems(summary)), broken
    summary["oracle"].update(checked=0, judged=0)
    assert not summary_problems(summary)
