"""The round hooks: ``round_sends`` / ``round_deliveries``.

The rounds engine records a round's traffic a phase at a time.  These
tests pin what that must not change: the log holds exactly the events
the run's round records imply, one per message, so the fold gives the
counts a per-hook counter gives.  The slotted :class:`~repro.obs.Event`
contract rides along.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random

import pytest

from repro.obs import Event, EventLog, metrics_of
from repro.rounds import (
    CrashEvent,
    FailureScenario,
    PendingMessage,
    RoundModel,
    execute,
    random_scenario,
)
from repro.runtime import SweepRunner, space_by_name
from repro.runtime.registry import ALGORITHM_FACTORIES, make_algorithm
from repro.runtime.space import vectorized_space
from tests.reference_metrics import ReferenceMetrics

N = 4


def expected_events(run, algorithm):
    """The events the log must hold, rebuilt from the finished run's
    records alone (logical-clock timestamps)."""
    scenario = run.scenario
    rows = []
    for record in run.rounds:
        r = record.index
        alive = [p for p in range(run.n) if scenario.alive_at_start(p, r)]
        rows.append(("round_start", r, None, None, alive))
        for sender, recipient in record.sent:
            rows.append(("msg_sent", r, recipient, sender, None))
        for sender, recipient in record.sent:
            delivered = sender in record.delivered[recipient]
            kind = "msg_delivered" if delivered else "msg_withheld"
            rows.append((kind, r, recipient, sender, None))
        for pid in range(run.n):
            if pid in record.crashed:
                applies = scenario.crash_of(pid).applies_transition
                rows.append(("crash", r, pid, None, applies))
            if run.decision_round(pid) == r:
                rows.append(("decide", r, pid, None, run.decision_value(pid)))
    final = run.num_rounds
    for pid in range(run.n):
        if scenario.alive_at_start(pid, final + 1) and algorithm.halted(
            pid, run.final_states[pid]
        ):
            rows.append(("halt", final, pid, None, None))
    return [
        Event(kind, float(ts), round=r, pid=pid, peer=peer, value=value)
        for ts, (kind, r, pid, peer, value) in enumerate(rows, start=1)
    ]


def cases(algorithm_name, model):
    """``(values, scenario, t)`` cells: the hand-built corner cases
    (partial ``sent_to``, decide-then-crash, initially dead, pending
    towards two recipients) plus 25 seeded random adversaries."""
    t = 1 if algorithm_name == "a1" else 2
    value_sets = ((0, 1, 1, 0), (3, 2, 1, 0))
    if algorithm_name == "atomic-broadcast":
        value_sets = (((1,), (2,), (3, 5), (4,)), ((7,), (), (6,), (5,)))
    everyone_but_1 = frozenset({0, 2, 3})
    scenarios = [
        FailureScenario.failure_free(N),
        FailureScenario(n=N, crashes=(CrashEvent(0, 1, frozenset({2})),)),
        FailureScenario(n=N, crashes=(CrashEvent(1, 2, everyone_but_1, True),)),
        FailureScenario(n=N, crashes=(CrashEvent(2, 1),)),
    ]
    if model == "RWS":
        scenarios.append(
            FailureScenario(
                n=N,
                crashes=(CrashEvent(0, 2, frozenset()),),
                pending=frozenset(
                    {PendingMessage(0, 1, 1), PendingMessage(0, 3, 1)}
                ),
            )
        )
    scenarios.extend(
        random_scenario(
            N,
            t,
            max_round=3,
            allow_pending=(model == "RWS"),
            rng=random.Random(1000 + index),
        )
        for index in range(25)
    )
    for scenario in scenarios:
        for values in value_sets:
            yield values, scenario, t


def run_case(algorithm_name, model, values, scenario, t, observer):
    algorithm = make_algorithm(algorithm_name)
    run = execute(
        algorithm,
        values,
        scenario,
        t=t,
        model=RoundModel(model),
        max_rounds=5,
        observer=observer,
    )
    return run, algorithm


#: sha256 over every case's JSONL lines (each ``"\n"``-terminated, cases
#: in :func:`cases` order), taken from the event log at the parent
#: commit of the change that made the log the engines' only recorder.
PARENT_LOG_DIGESTS = {
    ("a1", "RS"): "eb5d4cdc3a70954fe248552bb0572ed9ba3fe9efb82c9913c37db1d6e915cc1d",
    ("a1", "RWS"): "4d7d19691d4cbe556b41e6cbff925c26555dea4d6e2a987f987e7bfe3142c276",
    ("atomic-broadcast", "RS"): "d8248467a2cf75edfafd749e86fd257de3bb17cc831beeb00f604abe3d9b8791",
    ("atomic-broadcast", "RWS"): "48cc602c8096375fa5afab6e832faf5e4cbe894d05f8b8c952df15e3f7e5630c",
    ("c-opt", "RS"): "eb05c6d33c2d6a65c15e6d8eb881f4c2052c8c7005dcb559b650bed845a4c08e",
    ("c-opt", "RWS"): "301535db2b82e5b99b56de8b8dd6b47f218f25c3d461459dd51d83c184a27998",
    ("c-opt-ws", "RS"): "eb05c6d33c2d6a65c15e6d8eb881f4c2052c8c7005dcb559b650bed845a4c08e",
    ("c-opt-ws", "RWS"): "fdde6a25ea6f3f362b7eee2f7231749342eb64d28e3488abba02cafc4ad31fa4",
    ("eager-floodset-ws", "RS"): "4b692d7dd87ccd708832fcd1870897fda2e8aed61f4bde071753612ad696515c",
    ("eager-floodset-ws", "RWS"): "d650c0fb647fecc2fd1922524fc087572243b234d1593b6dd247321a82662d41",
    ("f-opt", "RS"): "7488a347257a8fc06af5f6e3e5e1bb82319da9117e73374f51f111ec04b149d2",
    ("f-opt", "RWS"): "26780ce8595a69856ed6744f5948a34654c1f6692a59c312b4de13b8a238a478",
    ("f-opt-ws", "RS"): "7488a347257a8fc06af5f6e3e5e1bb82319da9117e73374f51f111ec04b149d2",
    ("f-opt-ws", "RWS"): "a987bcbac76b8bebcab1b2b5f27437cd1b900b42529f33282cc33ae15e4352b5",
    ("floodset", "RS"): "eb05c6d33c2d6a65c15e6d8eb881f4c2052c8c7005dcb559b650bed845a4c08e",
    ("floodset", "RWS"): "301535db2b82e5b99b56de8b8dd6b47f218f25c3d461459dd51d83c184a27998",
    ("floodset-ws", "RS"): "eb05c6d33c2d6a65c15e6d8eb881f4c2052c8c7005dcb559b650bed845a4c08e",
    ("floodset-ws", "RWS"): "fdde6a25ea6f3f362b7eee2f7231749342eb64d28e3488abba02cafc4ad31fa4",
}


ALL_CELLS = [
    (name, model) for name in sorted(ALGORITHM_FACTORIES) for model in ("RS", "RWS")
]


class TestHookSequenceParity:
    def test_every_registered_algorithm_is_pinned(self):
        assert set(PARENT_LOG_DIGESTS) == set(ALL_CELLS)

    @pytest.mark.parametrize("name,model", ALL_CELLS)
    def test_per_message_observer_sees_the_same_calls(self, name, model):
        # One event per message, as the run's records imply.
        digest = hashlib.sha256()
        saw_withheld = saw_partial = False
        for values, scenario, t in cases(name, model):
            log = EventLog()
            run, algorithm = run_case(name, model, values, scenario, t, log)
            assert log.events == expected_events(run, algorithm)
            for line in log.jsonl_lines():
                digest.update(line.encode() + b"\n")
            saw_withheld |= "msg_withheld" in log.kinds()
            saw_partial |= any(
                0 < len(event.sent_to) < N - 1 for event in scenario.crashes
            )
        assert digest.hexdigest() == PARENT_LOG_DIGESTS[name, model]
        assert saw_partial
        assert saw_withheld == (model == "RWS")

    def test_self_send_of_a_crashing_process_needs_applies_transition(self):
        others = frozenset({1, 2, 3})
        for applies in (False, True):
            scenario = FailureScenario(
                n=N, crashes=(CrashEvent(0, 1, others, applies),)
            )
            log = EventLog()
            run_case("floodset", "RS", (0, 1, 1, 0), scenario, 2, log)
            round_one_self_sends = [
                e for e in log.of_kind("msg_sent")
                if (e.round, e.peer, e.pid) == (1, 0, 0)
            ]
            assert bool(round_one_self_sends) == applies

    def test_batching_observers_match_the_per_message_path(self):
        """EventLog: the events a per-hook counter records, so the fold
        gives its counts, and no counter for a phase that had no such
        message."""
        for model in ("RS", "RWS"):
            for values, scenario, t in cases("floodset-ws", model):
                log = EventLog()
                counted = ReferenceMetrics()
                for observer in (log, counted):
                    run_case("floodset-ws", model, values, scenario, t, observer)
                assert log.events == counted.events
                assert metrics_of(log.events) == counted.state()
                if not scenario.pending:
                    counters = metrics_of(log.events)["counters"]
                    assert not any("withheld" in name for name in counters)


class TestSlottedEvent:
    EVENT = Event("decide", 3.0, round=2, pid=1, value=(0, "x"))

    def test_frozen_and_dictless(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.EVENT.value = 9
        assert not hasattr(self.EVENT, "__dict__")

    def test_replace_pickle_and_dict_round_trips(self):
        moved = dataclasses.replace(self.EVENT, ts=7.0)
        assert (moved.ts, moved.value) == (7.0, (0, "x"))
        assert moved != self.EVENT
        clone = pickle.loads(pickle.dumps(self.EVENT))
        assert clone == self.EVENT and hash(clone) == hash(self.EVENT)
        plain = Event("msg_sent", 1.0, round=1, pid=0, peer=2)
        assert Event.from_dict(plain.to_dict()) == plain
        # A key that is no event field (an older trace's side band) is
        # dropped on the way in.
        assert Event.from_dict({**plain.to_dict(), "extra": {"k": 1}}) == plain

    def test_events_cross_the_process_pool(self):
        space = space_by_name("random-rws", count=12, seed=5)
        pooled = SweepRunner(jobs=2).run(space)
        serial = SweepRunner(jobs=1).run(space)
        assert [r.events for r in pooled.results] == [
            r.events for r in serial.results
        ]
        assert list(pooled.merged_jsonl_lines()) == list(
            serial.merged_jsonl_lines()
        )

    def test_template_decides_are_the_cells_own_decide_events(self):
        space = vectorized_space(space_by_name("random-rs", count=20, seed=5))
        for result in SweepRunner(jobs=1).run(space).results:
            events = result.events
            template = events.template
            decides = events.decides()
            assert decides == [e for e in list(events) if e.kind == "decide"]
            assert [d.value for d in decides] == list(events.holes)
            for position, decide in zip(template.positions, decides):
                assert decide == dataclasses.replace(
                    template.events[position], value=decide.value
                )

    # -- hook-built events: what EventLog records *is* an Event ---------------

    @staticmethod
    def _hook_built() -> list[tuple[Event, Event]]:
        """Every EventLog hook's event beside its constructor-built twin."""
        log = EventLog()
        log.round_start(1, [2, 0, 1])
        log.round_sends(1, [(0, 1), (2, 1)])
        log.round_deliveries(1, [(0, 1), (2, 1)], {(2, 1)})
        log.msg_sent(0, 1, round_index=1, time=4)
        log.msg_withheld(0, 1, 1)
        log.msg_delivered(0, 1, round_index=1, time=5)
        log.crash(2, round_index=1, time=6, applies_transition=False)
        log.suspect(1, 2, time=7, delay=1)
        log.decide(1, (0, "x"), 2)
        log.halt(1, 2)
        twins = [
            Event("round_start", 1.0, round=1, value=[0, 1, 2]),
            Event("msg_sent", 2.0, round=1, pid=1, peer=0),
            Event("msg_sent", 3.0, round=1, pid=1, peer=2),
            Event("msg_delivered", 4.0, round=1, pid=1, peer=0),
            Event("msg_withheld", 5.0, round=1, pid=1, peer=2),
            Event("msg_sent", 6.0, round=1, time=4, pid=1, peer=0),
            Event("msg_withheld", 7.0, round=1, pid=1, peer=0),
            Event("msg_delivered", 8.0, round=1, time=5, pid=1, peer=0),
            Event("crash", 9.0, round=1, time=6, pid=2, value=False),
            Event("suspect", 10.0, time=7, pid=1, peer=2, value=1),
            Event("decide", 11.0, round=2, pid=1, value=(0, "x")),
            Event("halt", 12.0, round=2, pid=1),
        ]
        assert len(log.events) == len(twins)
        return list(zip(log.events, twins))

    def test_hook_built_events_are_events(self):
        for built, twin in self._hook_built():
            assert type(built) is Event
            assert not hasattr(built, "__dict__")
            assert built == twin and twin == built
            assert repr(built) == repr(twin)
            assert built.to_json() == twin.to_json()

    def test_hook_built_events_hash_like_constructed_ones(self):
        for built, twin in self._hook_built():
            if built.kind == "round_start":
                continue  # a list value: unhashable either way
            assert hash(built) == hash(twin)
            assert {built: 1}[twin] == 1

    def test_hook_built_events_are_frozen(self):
        for built, _ in self._hook_built():
            with pytest.raises(dataclasses.FrozenInstanceError):
                built.value = 9
            with pytest.raises(dataclasses.FrozenInstanceError):
                del built.ts
            with pytest.raises((AttributeError, TypeError)):
                built.colour = "red"

    def test_hook_built_events_replace_and_pickle(self):
        for built, twin in self._hook_built():
            moved = dataclasses.replace(built, ts=99.0)
            assert type(moved) is Event
            assert moved == dataclasses.replace(twin, ts=99.0)
            clone = pickle.loads(pickle.dumps(built))
            assert type(clone) is Event
            assert clone == built
            assert Event.from_dict(built.to_dict()).to_dict() == twin.to_dict()
