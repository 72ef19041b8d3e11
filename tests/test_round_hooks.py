"""The round hooks: ``round_sends`` / ``round_deliveries``.

The rounds engine reports a round's traffic a phase at a time.  These
tests pin what that must not change: an observer that only knows the
per-message hooks sees the calls it always did (arguments and
``msg_id`` included), the batching observers build the events the
per-message path builds, and ``CompositeObserver`` isolates a failing
observer per round the way it does per event.  The slotted
:class:`~repro.obs.Event` contract rides along.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random

import pytest

from repro.obs import CompositeObserver, Event, EventLog, MetricsObserver
from repro.obs.causal import CausalObserver, round_msg_id
from repro.obs.events import Observer, logical_clock
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

N = 4


class PerMessageObserver(Observer):
    """A pre-round-hook observer: overrides per-message hooks only and
    records every call with the exact arguments it was given."""

    def __init__(self):
        self.calls = []

    def round_start(self, round_index, alive):
        self.calls.append(("round_start", round_index, tuple(alive)))

    def msg_sent(self, sender, recipient, **kwargs):
        self.calls.append(("msg_sent", sender, recipient, kwargs))

    def msg_withheld(self, sender, recipient, round_index, **kwargs):
        self.calls.append(("msg_withheld", sender, recipient, round_index, kwargs))

    def msg_delivered(self, sender, recipient, **kwargs):
        self.calls.append(("msg_delivered", sender, recipient, kwargs))

    def crash(self, pid, **kwargs):
        self.calls.append(("crash", pid, kwargs))

    def decide(self, pid, value, round_index=None, **kwargs):
        self.calls.append(("decide", pid, value, round_index, kwargs))

    def halt(self, pid, round_index=None, **kwargs):
        self.calls.append(("halt", pid, round_index, kwargs))


def expected_calls(run, algorithm):
    """The per-message call sequence the executor made before it
    batched, rebuilt from the finished run's records alone."""
    scenario = run.scenario
    calls = []
    for record in run.rounds:
        r = record.index
        calls.append(
            (
                "round_start",
                r,
                tuple(p for p in range(run.n) if scenario.alive_at_start(p, r)),
            )
        )
        for sender, recipient in record.sent:
            calls.append(
                (
                    "msg_sent",
                    sender,
                    recipient,
                    {"round_index": r, "msg_id": f"r{r}:{sender}>{recipient}"},
                )
            )
        for sender, recipient in record.sent:
            msg_id = f"r{r}:{sender}>{recipient}"
            if sender in record.delivered[recipient]:
                calls.append(
                    (
                        "msg_delivered",
                        sender,
                        recipient,
                        {"round_index": r, "msg_id": msg_id},
                    )
                )
            else:
                calls.append(
                    ("msg_withheld", sender, recipient, r, {"msg_id": msg_id})
                )
        for pid in range(run.n):
            if pid in record.crashed:
                applies = scenario.crash_of(pid).applies_transition
                calls.append(
                    (
                        "crash",
                        pid,
                        {"round_index": r, "applies_transition": applies},
                    )
                )
            if run.decision_round(pid) == r:
                calls.append(("decide", pid, run.decision_value(pid), r, {}))
    final = run.num_rounds
    for pid in range(run.n):
        if scenario.alive_at_start(pid, final + 1) and algorithm.halted(
            pid, run.final_states[pid]
        ):
            calls.append(("halt", pid, final, {}))
    return calls


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


#: sha256 over ``repr`` of every case's recorded call list (kwargs as
#: sorted item tuples, decide values as ``repr``), taken from the
#: per-message executor at the parent commit of the round-hook change.
PARENT_CALL_DIGESTS = {
    ("a1", "RS"): "2ae0535d6dcf51fc712b9a782d172a08cc1b929029ea9058651e619b47c254e2",
    ("a1", "RWS"): "99369986ccb48db0af1c51d7a64a13827005c15807bb59a488cd7c3b4cb1c6e1",
    ("atomic-broadcast", "RS"): "6d9e26a071de06effb34ba3ddd2454d373bb111a16b05b1a88735f18d6b2ac1d",
    ("atomic-broadcast", "RWS"): "beb61b0c25faf829841615a5106e6180ce651a8fe192b8e8069afcd6c606be93",
    ("c-opt", "RS"): "12e71d530338ac4af4bb8e68ce50611d5af510a672982255479be0c7a8ba3435",
    ("c-opt", "RWS"): "6bfa550eb9bcdab86aab1bd2e5e12ee61fe1a87e36078905768dcc9a841c4857",
    ("c-opt-ws", "RS"): "12e71d530338ac4af4bb8e68ce50611d5af510a672982255479be0c7a8ba3435",
    ("c-opt-ws", "RWS"): "9d997a6b531b8b142014d24162e8a2b46b70748673032a514670ca8ff7503e9c",
    ("eager-floodset-ws", "RS"): "67e4756d58a9f7054d96dd6ba6dfcd3e162eb13fd8b78dca119e32afe753f401",
    ("eager-floodset-ws", "RWS"): "bfb3fd5b945bb8847eb1b22c21e39c888c9d39b10dd9de80abc78d72a11ed677",
    ("f-opt", "RS"): "dec96f9c8ff2e55cffa1d96e76bdf60348c7ee1bce43ce192118e793700011aa",
    ("f-opt", "RWS"): "7f8b39b69019109deb3491c617522f7912127e4f411576296f54e46f4fbc1018",
    ("f-opt-ws", "RS"): "dec96f9c8ff2e55cffa1d96e76bdf60348c7ee1bce43ce192118e793700011aa",
    ("f-opt-ws", "RWS"): "ef45ad910cf204f55863103522250c57345d1793675e940667e9c9cbfaba66af",
    ("floodset", "RS"): "12e71d530338ac4af4bb8e68ce50611d5af510a672982255479be0c7a8ba3435",
    ("floodset", "RWS"): "6bfa550eb9bcdab86aab1bd2e5e12ee61fe1a87e36078905768dcc9a841c4857",
    ("floodset-ws", "RS"): "12e71d530338ac4af4bb8e68ce50611d5af510a672982255479be0c7a8ba3435",
    ("floodset-ws", "RWS"): "9d997a6b531b8b142014d24162e8a2b46b70748673032a514670ca8ff7503e9c",
}


def _digest_form(call):
    """A call in the shape :data:`PARENT_CALL_DIGESTS` was hashed in."""
    *args, kwargs = call
    if call[0] == "round_start":
        return call
    if call[0] == "decide":
        args[2] = repr(args[2])
    return (*args, tuple(sorted(kwargs.items())))


ALL_CELLS = [
    (name, model) for name in sorted(ALGORITHM_FACTORIES) for model in ("RS", "RWS")
]


class TestHookSequenceParity:
    def test_every_registered_algorithm_is_pinned(self):
        assert set(PARENT_CALL_DIGESTS) == set(ALL_CELLS)

    @pytest.mark.parametrize("name,model", ALL_CELLS)
    def test_per_message_observer_sees_the_same_calls(self, name, model):
        digest = hashlib.sha256()
        saw_withheld = saw_partial = False
        for values, scenario, t in cases(name, model):
            legacy = PerMessageObserver()
            run, algorithm = run_case(name, model, values, scenario, t, legacy)
            assert legacy.calls == expected_calls(run, algorithm)
            digest.update(
                repr([_digest_form(call) for call in legacy.calls]).encode()
            )
            saw_withheld |= any(c[0] == "msg_withheld" for c in legacy.calls)
            saw_partial |= any(
                0 < len(event.sent_to) < N - 1 for event in scenario.crashes
            )
        assert digest.hexdigest() == PARENT_CALL_DIGESTS[name, model]
        assert saw_partial
        assert saw_withheld == (model == "RWS")

    def test_self_send_of_a_crashing_process_needs_applies_transition(self):
        others = frozenset({1, 2, 3})
        for applies in (False, True):
            scenario = FailureScenario(
                n=N, crashes=(CrashEvent(0, 1, others, applies),)
            )
            legacy = PerMessageObserver()
            run_case("floodset", "RS", (0, 1, 1, 0), scenario, 2, legacy)
            round_one_self_send = (
                "msg_sent",
                0,
                0,
                {"round_index": 1, "msg_id": "r1:0>0"},
            )
            assert (round_one_self_send in legacy.calls) == applies

    @pytest.mark.parametrize("model", ["RS", "RWS"])
    def test_causal_observer_ids_and_graph_unchanged(self, model):
        class Replayed(CausalObserver):
            """The same observer, forced through the per-message path."""

            round_sends = Observer.round_sends
            round_deliveries = Observer.round_deliveries

        for values, scenario, t in cases("floodset", model):
            bulk = CausalObserver(clock=logical_clock())
            replayed = Replayed(clock=logical_clock())
            run_case("floodset", model, values, scenario, t, bulk)
            run_case("floodset", model, values, scenario, t, replayed)
            assert bulk.events == replayed.events
            assert bulk.engine_msg_ids == replayed.engine_msg_ids
            assert bulk.engine_msg_ids == {
                index: round_msg_id(event.round, event.peer, event.pid)
                for index, event in enumerate(bulk.events)
                if event.kind.startswith("msg_")
            }
            ours, theirs = bulk.graph(), replayed.graph()
            assert ours.msg_ids == theirs.msg_ids
            assert ours.parents == theirs.parents
            assert ours.lamport == theirs.lamport
            assert ours.vector == theirs.vector

    def test_event_log_subclass_overriding_msg_sent_is_called_per_message(self):
        class Tagging(EventLog):
            def __init__(self):
                super().__init__(clock=logical_clock())
                self.ids = []

            def msg_sent(self, sender, recipient, **kwargs):
                self.ids.append(kwargs["msg_id"])
                super().msg_sent(sender, recipient, **kwargs)

        tagging, plain = Tagging(), EventLog(clock=logical_clock())
        scenario = FailureScenario.failure_free(3)
        for log in (tagging, plain):
            run_case("floodset", "RS", (0, 1, 1), scenario, 1, log)
        assert tagging.events == plain.events
        assert tagging.ids == [
            round_msg_id(e.round, e.peer, e.pid) for e in plain.of_kind("msg_sent")
        ]
        # only the overridden phase falls back; deliveries still batch
        assert Tagging.round_sends is Observer.round_sends
        assert Tagging.round_deliveries is EventLog.round_deliveries

    def test_batching_observers_match_the_per_message_path(self):
        """EventLog and MetricsObserver: same events, same snapshot,
        and no counter for a phase that had no such message."""

        class ReplayedLog(EventLog):
            round_sends = Observer.round_sends
            round_deliveries = Observer.round_deliveries

        class ReplayedMetrics(MetricsObserver):
            round_sends = Observer.round_sends
            round_deliveries = Observer.round_deliveries

        for model in ("RS", "RWS"):
            for values, scenario, t in cases("floodset-ws", model):
                log, metrics = EventLog(clock=logical_clock()), MetricsObserver()
                ref_log = ReplayedLog(clock=logical_clock())
                ref_metrics = ReplayedMetrics()
                for observer in (log, metrics, ref_log, ref_metrics):
                    run_case("floodset-ws", model, values, scenario, t, observer)
                assert log.events == ref_log.events
                assert metrics.registry.state() == ref_metrics.registry.state()
                if not scenario.pending:
                    counters = metrics.registry.state()["counters"]
                    assert not any("withheld" in name for name in counters)


class Exploding(Observer):
    def round_sends(self, round_index, pairs):
        raise RuntimeError("round_sends exploded")


class TestCompositeRoundHookIsolation:
    def run_with(self, *observers):
        composite = CompositeObserver(*observers)
        run_case(
            "floodset", "RS", (0, 1, 1), FailureScenario.failure_free(3), 1,
            composite,
        )
        return composite

    def reference(self):
        log = EventLog(clock=logical_clock())
        run_case("floodset", "RS", (0, 1, 1), FailureScenario.failure_free(3), 1, log)
        return log.events

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_raising_round_hook_is_recorded_once_per_round(self, bad_first):
        bad, log = Exploding(), EventLog(clock=logical_clock())
        composite = self.run_with(*((bad, log) if bad_first else (log, bad)))
        assert log.events == self.reference()
        rounds = len(log.of_kind("round_start"))
        assert [(obs, hook) for obs, hook, _ in composite.errors] == [
            (bad, "round_sends")
        ] * rounds
        assert all(isinstance(exc, RuntimeError) for *_, exc in composite.errors)

    def test_raising_per_message_hook_is_charged_to_the_round_hook(self):
        class BadMsgSent(PerMessageObserver):
            def msg_sent(self, sender, recipient, **kwargs):
                raise RuntimeError("msg_sent exploded")

        bad, log = BadMsgSent(), EventLog(clock=logical_clock())
        composite = self.run_with(bad, log)
        assert log.events == self.reference()
        assert {hook for _, hook, _ in composite.errors} == {"round_sends"}
        # the phases that did not raise still reached the bad observer
        assert any(call[0] == "msg_delivered" for call in bad.calls)

    def test_duck_typed_per_message_observer_gets_the_replay(self):
        # PerMessageObserver's hooks on a class that is not an Observer
        # and therefore has no round hooks at all.
        old_hooks = {
            name: member
            for name, member in vars(PerMessageObserver).items()
            if name == "__init__"
            or not name.startswith(("__", "round_sends", "round_deliveries"))
        }
        Duck = type("Duck", (), old_hooks)
        assert not hasattr(Duck, "round_sends")
        duck, legacy = Duck(), PerMessageObserver()
        composite = self.run_with(duck, legacy)
        assert not composite.errors
        assert duck.calls == legacy.calls
        assert any(call[0] == "msg_delivered" for call in duck.calls)


class TestSlottedEvent:
    EVENT = Event("decide", 3.0, round=2, pid=1, value=(0, "x"), extra={"k": 1})

    def test_frozen_and_dictless(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.EVENT.value = 9
        assert not hasattr(self.EVENT, "__dict__")

    def test_extra_excluded_from_equality_and_hash(self):
        other = dataclasses.replace(self.EVENT, extra=None)
        assert other == self.EVENT
        assert hash(other) == hash(self.EVENT)
        assert dataclasses.replace(self.EVENT, value=1) != self.EVENT

    def test_replace_pickle_and_dict_round_trips(self):
        moved = dataclasses.replace(self.EVENT, ts=7.0)
        assert (moved.ts, moved.value, moved.extra) == (7.0, (0, "x"), {"k": 1})
        clone = pickle.loads(pickle.dumps(self.EVENT))
        assert clone == self.EVENT and clone.extra == {"k": 1}
        plain = Event("msg_sent", 1.0, round=1, pid=0, peer=2)
        assert Event.from_dict(plain.to_dict()) == plain
        assert Event.from_dict(self.EVENT.to_dict()).extra == {"k": 1}

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
        log = EventLog(clock=logical_clock())
        extra = {"k": 1}
        log.round_start(1, [2, 0, 1])
        log.round_sends(1, [(0, 1), (2, 1)])
        log.round_deliveries(1, [(0, 1), (2, 1)], {(2, 1)})
        log.msg_sent(0, 1, round_index=1, time=4, msg_id="m", extra=extra)
        log.msg_withheld(0, 1, 1, msg_id="m", extra=extra)
        log.msg_delivered(0, 1, round_index=1, time=5, msg_id="m", extra=extra)
        log.crash(2, round_index=1, time=6, applies_transition=False, extra=extra)
        log.suspect(1, 2, time=7, delay=1, extra=extra)
        log.decide(1, (0, "x"), 2, extra=extra)
        log.halt(1, 2, extra=extra)
        twins = [
            Event("round_start", 1.0, round=1, value=[0, 1, 2]),
            Event("msg_sent", 2.0, round=1, pid=1, peer=0),
            Event("msg_sent", 3.0, round=1, pid=1, peer=2),
            Event("msg_delivered", 4.0, round=1, pid=1, peer=0),
            Event("msg_withheld", 5.0, round=1, pid=1, peer=2),
            Event("msg_sent", 6.0, round=1, time=4, pid=1, peer=0, extra=extra),
            Event("msg_withheld", 7.0, round=1, pid=1, peer=0, extra=extra),
            Event("msg_delivered", 8.0, round=1, time=5, pid=1, peer=0, extra=extra),
            Event("crash", 9.0, round=1, time=6, pid=2, value=False, extra=extra),
            Event("suspect", 10.0, time=7, pid=1, peer=2, value=1, extra=extra),
            Event("decide", 11.0, round=2, pid=1, value=(0, "x"), extra=extra),
            Event("halt", 12.0, round=2, pid=1, extra=extra),
        ]
        assert len(log.events) == len(twins)
        return list(zip(log.events, twins))

    def test_hook_built_events_are_events(self):
        for built, twin in self._hook_built():
            assert type(built) is Event
            assert not hasattr(built, "__dict__")
            assert built == twin and twin == built
            assert built.extra == twin.extra  # excluded from ==
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
            assert moved.extra == built.extra
            clone = pickle.loads(pickle.dumps(built))
            assert type(clone) is Event
            assert clone == built and clone.extra == built.extra
            assert Event.from_dict(built.to_dict()).to_dict() == twin.to_dict()
