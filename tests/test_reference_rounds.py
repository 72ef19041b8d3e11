"""The round reference semantics against the engine and the local view.

Every algorithm the model checker accepts runs at n = 3, t = 1 over
every admissible scenario of both round models (RS: 46, RWS: 280)
and every binary value vector, once on the rounds engine and once on
:mod:`tests.reference.rounds`.  Two checks follow:

* the engine's decisions are the reference's;
* engine runs that give a process the same
  :func:`repro.obs.diff.local_view` up to its decision (over the run's
  inputs) leave that process in the same reference state at its
  decision round — the view is all a deterministic process's state
  rests on, which is what the ``indistinguishability`` property and
  Theorem 3.1 assume of it.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest

from repro.consensus import FloodSet
from repro.obs.diff import local_view
from repro.rounds import CrashEvent, FailureScenario, PendingMessage, all_scenarios
from repro.runtime.harness import execute_request
from repro.runtime.registry import ALGORITHM_FACTORIES
from repro.runtime.request import ExecutionRequest
from tests.reference import rounds as reference
from tests.reference.validators import (
    check_round_synchrony,
    check_weak_round_synchrony,
)

N, T, HORIZON = 3, 1, 3
SCENARIO_COUNTS = {"RS": 46, "RWS": 280}
MC_ALGORITHMS = sorted(ALGORITHM_FACTORIES)


def _decide_index(events, pid: int) -> int:
    return next(
        index
        for index, event in enumerate(events)
        if event.kind == "decide" and event.pid == pid
    )


@pytest.mark.parametrize("model", sorted(SCENARIO_COUNTS))
@pytest.mark.parametrize("algorithm", MC_ALGORITHMS)
def test_equal_views_have_equal_reference_states(algorithm, model):
    scenarios = list(
        all_scenarios(
            N, T, max_round=HORIZON, allow_pending=(model == "RWS")
        )
    )
    assert len(scenarios) == SCENARIO_COUNTS[model]
    synchrony = (
        check_round_synchrony if model == "RS" else check_weak_round_synchrony
    )
    factory = ALGORITHM_FACTORIES[algorithm]
    groups: dict[tuple, tuple[str, object]] = {}
    shared = 0
    for values in itertools.product((0, 1), repeat=N):
        for index, scenario in enumerate(scenarios):
            cell = f"{values}/{index}"
            result = execute_request(
                ExecutionRequest(
                    name=cell,
                    engine="rounds",
                    algorithm=algorithm,
                    values=values,
                    t=T,
                    model=model,
                    scenario=scenario,
                    max_rounds=HORIZON,
                    check_consensus=False,
                )
            )
            ref = reference.run(
                factory(), values, scenario, t=T, model=model, rounds=HORIZON
            )
            assert synchrony(ref) == [], cell
            assert ref.decisions(factory()) == result.decisions, cell
            for pid, (decided_round, _) in result.decisions.items():
                view = local_view(
                    result.events,
                    pid,
                    upto=_decide_index(result.events, pid),
                    inputs=values,
                )
                state = ref.states[pid][decided_round]
                first = groups.setdefault((pid, view), (cell, state))
                if first[0] != cell:
                    shared += 1
                    assert first[1] == state, (
                        f"p{pid}: {first[0]} and {cell} share a view but "
                        f"not a reference state"
                    )
    assert shared, "no two runs share a view: the check compared nothing"


class TestReferenceSemantics:
    def test_reference_is_independent_of_the_engines(self):
        tree = ast.parse(Path(reference.__file__).read_text())
        imported = {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        } | {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
        }
        assert not any(name.startswith("repro") for name in imported)

    def test_rs_rejects_pending_messages(self):
        scenario = FailureScenario(
            n=3,
            crashes=(CrashEvent(pid=0, round=2),),
            pending=frozenset({PendingMessage(0, 1, 1)}),
        )
        with pytest.raises(ValueError, match="round synchrony"):
            reference.run(
                FloodSet(), (0, 1, 1), scenario, t=1, model="RS", rounds=2
            )

    def test_rws_pending_needs_a_crash_by_the_next_round(self):
        scenario = FailureScenario(
            n=3, pending=frozenset({PendingMessage(0, 1, 1)})
        )
        problems = reference.model_problems(scenario, "RWS")
        assert problems and "by round 2" in problems[0]

    def test_crash_mid_broadcast_reaches_only_sent_to(self):
        scenario = FailureScenario(
            n=3,
            crashes=(CrashEvent(pid=0, round=1, sent_to=frozenset({1})),),
        )
        ref = reference.run(
            FloodSet(), (0, 1, 1), scenario, t=1, model="RS", rounds=2
        )
        first = ref.rounds[0]
        assert 0 in first.delivered[1] and 0 not in first.delivered[2]
        assert ref.states[0][1] is None
