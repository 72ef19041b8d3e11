"""A run's metrics are a fold over its trace.

:func:`repro.obs.metrics.metrics_of` replaced a second observer that
counted the engines' hook calls beside the event log.  These tests hold
the fold to that observer's rules, kept in
``tests/reference_metrics.py``: every cell of every registered space on
both round engines (the sweep's result path — batching, sharing, the
value-free template — included) and every named run of
:data:`repro.runtime.space.NAMED_CELLS`.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs import metrics_of
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    SweepRunner,
    execute_request,
    harness_for,
    space_by_name,
)
from repro.runtime.cache import ResultCache
from repro.runtime.space import (
    CELL_ALIASES,
    NAMED_CELLS,
    SPACE_FACTORIES,
    named_cell,
    vectorized_space,
)
from tests.reference_metrics import ReferenceMetrics
from tests.spaces import space_with

SPACES = sorted(SPACE_FACTORIES)


def reference(request):
    """``(events, metrics)`` of one fresh run, counted hook by hook."""
    observer = ReferenceMetrics()
    harness_for(request.engine).execute(request, observer)
    return observer.events, observer.state()


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("engine", ["rounds", "vector"])
@pytest.mark.parametrize("name", SPACES)
def test_every_cell_of_every_space_matches_the_reference(name, engine, seed):
    space = space_with(name, count=300, seed=seed)
    if engine == "vector":
        space = vectorized_space(space)
    sweep = SweepRunner().run(space)
    for request, result in zip(space.requests, sweep.results):
        events, metrics = reference(request)
        assert list(result.events) == events, request.name
        assert result.metrics == metrics, request.name


@pytest.mark.parametrize("name", sorted(NAMED_CELLS) + sorted(CELL_ALIASES))
def test_every_named_run_matches_the_reference(name):
    request = named_cell(name).request
    assert execute_request(request).metrics == reference(request)[1]


def test_a_stored_or_shipped_result_refolds_the_same_metrics(tmp_path):
    space = space_by_name("random-rws", count=40, seed=7)
    executed = SweepRunner(cache=ResultCache(str(tmp_path))).run(space)
    stored = SweepRunner(cache=ResultCache(str(tmp_path))).run(space)
    assert stored.executed == 0
    for fresh, hit in zip(executed.results, stored.results):
        shipped = pickle.loads(pickle.dumps(fresh))  # what a pool worker returns
        assert hit.metrics == shipped.metrics == fresh.metrics
    assert stored.metrics.state() == executed.metrics.state()


def _per_cell_fold(results):
    """The aggregate a sweep's metrics must equal: every cell's state
    merged on its own, in space order."""
    registry = MetricsRegistry()
    for result in results:
        registry.merge_states([result.metrics])
    registry.counter("sweep.cells.total").inc(len(results))
    return registry.state()


@pytest.mark.parametrize(
    "name, engine, leg",
    [
        (name, engine, leg)
        for name in SPACES
        for engine in ("rounds", "vector")
        for leg in ("executed", "stored")
    ],
)
def test_the_sweep_fold_equals_the_per_cell_fold(name, engine, leg, tmp_path):
    # A sweep adds the counters of a state that k cells share once,
    # times k: a run's twins (interleaved with other runs in every
    # stream) and, from a store, the cells of one template.  Gauges and
    # histograms (the emulation cells' suspicion delays among them)
    # still merge per cell.
    space = space_with(name, count=300, seed=7)
    if engine == "vector":
        space = vectorized_space(space)
    cache = ResultCache(str(tmp_path)) if leg == "stored" else None
    sweep = SweepRunner(cache=cache).run(space)
    if cache is not None:
        sweep = SweepRunner(cache=cache).run(space)
        assert sweep.executed == 0
    assert json.dumps(sweep.metrics.state()) == json.dumps(
        _per_cell_fold(sweep.results)
    )


def test_an_instrument_exists_only_once_an_event_feeds_it():
    assert metrics_of([]) == {"counters": {}, "gauges": {}, "histograms": {}}
    events = execute_request(named_cell("failure-free-rs").request).events
    counters = metrics_of(events)["counters"]
    assert not any("withheld" in name for name in counters)
    assert "crashes" not in counters


def test_hooks_the_covered_runs_do_not_fire_fold_like_the_reference():
    # A false suspicion (◊P: no crash, so no delay) and step-model
    # messages (no round) — rare in the runs above.
    observer = ReferenceMetrics()
    observer.msg_sent(0, 1, time=1)
    observer.msg_delivered(0, 1, time=2)
    observer.suspect(1, 2, time=3, delay=None)
    observer.suspect(1, 0, time=4, delay=2)
    observer.decide(1, "v")
    observer.halt(1)
    assert metrics_of(observer.events) == observer.state()
