"""One consensus spec, four judges, one verdict per run.

Agreement, uniform agreement, validity and termination are written once
(:mod:`repro.consensus.clauses`).  The judges read a run's decisions
from three encodings of it — the :class:`~repro.rounds.executor.RoundRun`
(the run checkers), the executed cell (the model checker's cell
properties) and the event trace (the trace oracle, given the inputs) —
and must name the same violated clauses as the reference checkers of
``tests/reference/consensus.py`` on every run of the n = 3, t = 1 grid:
every algorithm the model checker accepts, RS and RWS, every scenario
up to the horizon, every binary input vector.  No registered algorithm
violates validity there, so the hand-built runs of
``tests/test_spec_checkers.py`` go through the same four judges.
"""

from __future__ import annotations

import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.consensus import check_consensus_run, check_uniform_consensus_run
from repro.mc.properties import cell_property_problems
from repro.obs.check import check_events
from repro.obs.events import EventLog
from repro.rounds import FailureScenario, RoundModel
from repro.rounds.enumeration import all_scenarios
from repro.rounds.executor import execute
from repro.rounds.scenario import CrashEvent
from repro.runtime.registry import ALGORITHM_FACTORIES, make_algorithm
from tests.reference.consensus import violated_clauses
from tests.test_spec_checkers import FixedDecision

#: The shared clauses, as the run checkers and the reference name them.
SHARED = ("agreement", "uniform agreement", "validity", "termination")
#: mc's property name for each clause.
MC_NAMES = {clause: clause.replace(" ", "-") for clause in SHARED}
ALGORITHMS = sorted(ALGORITHM_FACTORIES)
INPUTS = list(itertools.product((0, 1), repeat=3))


def _execute(algorithm, values, scenario, model, horizon):
    log = EventLog()
    run = execute(
        algorithm,
        values,
        scenario,
        t=1,
        model=model,
        max_rounds=horizon,
        validate=False,
        observer=log,
    )
    return run, log.events


def verdicts(run, events, model, horizon) -> dict[str, set[str]]:
    """The violated shared clauses of one run, per judge."""
    runs = {
        v.clause
        for v in check_uniform_consensus_run(run) + check_consensus_run(run)
    }
    cell = SimpleNamespace(values=run.values, scenario=run.scenario)
    mc = {
        clause
        for clause in SHARED
        if cell_property_problems(
            MC_NAMES[clause],
            cell,
            SimpleNamespace(decisions=run.decisions),
            t=1,
            horizon=horizon,
            by_round=horizon,
        )
    }
    report = check_events(events, model=model.value, initial_values=run.values)
    trace = {
        v.message.split(" violated:")[0]
        for v in report.errors
        if v.checker == "consensus" and " violated:" in v.message
    }
    reference = violated_clauses(run)
    return {
        "runs": runs & set(SHARED),
        "mc": mc,
        "trace": trace,
        "reference": reference & set(SHARED),
    }


def _grid(horizon):
    for model in RoundModel:
        scenarios = list(
            all_scenarios(
                3, 1, max_round=horizon, allow_pending=model is RoundModel.RWS
            )
        )
        for name in ALGORITHMS:
            algorithm = make_algorithm(name)
            for scenario in scenarios:
                for values in INPUTS:
                    yield model, _execute(
                        algorithm, values, scenario, model, horizon
                    )


@pytest.mark.parametrize(
    "horizon,runs,expected",
    [
        (1, 3584, {"termination": 2792}),
        (3, 20864, {"uniform agreement": 90, "agreement": 40}),
    ],
)
def test_every_judge_names_the_reference_clauses_on_the_grid(
    horizon, runs, expected
):
    failing: Counter[str] = Counter()
    count = 0
    for model, (run, events) in _grid(horizon):
        count += 1
        judged = verdicts(run, events, model, horizon)
        reference = judged["reference"]
        assert all(found == reference for found in judged.values()), (
            run.scenario.describe(),
            run.values,
            judged,
        )
        failing.update(reference)
    assert count == runs
    assert dict(failing) == expected


def _crash(pid, sent_to=(), applies_transition=False):
    return FailureScenario(
        n=3,
        crashes=(
            CrashEvent(
                pid=pid,
                round=1,
                sent_to=frozenset(sent_to),
                applies_transition=applies_transition,
            ),
        ),
    )


#: The hand-built runs of ``tests/test_spec_checkers.py``:
#: ``(scripted decisions, inputs, scenario, violated clauses)``.
HAND_BUILT = [
    ({0: 0, 1: 1, 2: 1}, (0, 1, 1), None, {"agreement", "uniform agreement"}),
    ({0: 1, 1: 1, 2: 1}, (0, 1, 1), None, set()),
    (
        {0: 0, 1: 1, 2: 1},
        (0, 1, 1),
        _crash(0, {1, 2}, applies_transition=True),
        {"uniform agreement"},
    ),
    ({0: 1, 1: 1, 2: 1}, (0, 0, 0), None, {"validity"}),
    ({0: 9, 1: 9, 2: 9}, (0, 1, 1), None, {"validity"}),
    ({0: 1, 1: 1}, (0, 1, 1), None, {"termination"}),
    ({0: 1, 1: 1}, (0, 1, 1), _crash(2), set()),
]


@pytest.mark.parametrize("decisions,values,scenario,violated", HAND_BUILT)
def test_every_judge_names_the_clauses_of_a_hand_built_run(
    decisions, values, scenario, violated
):
    scenario = scenario or FailureScenario.failure_free(3)
    run, events = _execute(
        FixedDecision(decisions), values, scenario, RoundModel.RS, 2
    )
    judged = verdicts(run, events, RoundModel.RS, 2)
    assert judged == dict.fromkeys(judged, violated)
