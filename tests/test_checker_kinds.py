"""The kind-dispatched oracle did not get weaker.

``run_checkers`` hands an event only to the checkers that declared its
kind (:attr:`TraceChecker.kinds`).  Two tests hold that contract up:

* **inertness** — for every checker with declared ``kinds``, ``feed`` on
  an event of any *other* kind changes nothing about the checker, so
  skipping the call is unobservable;
* **differential** — the dispatched ``run_checkers`` against
  :func:`reference_run_checkers`, the loop it replaced (every event to
  every checker), report for report and checker state for checker
  state, over every trace the oracle has opinions on.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
from typing import Iterable, Sequence

import pytest

import repro.obs.check as check_module
from repro.fuzz.oracles import run_case
from repro.fuzz.strategies import FUZZ_ENGINES, generate_case
from repro.inject import INJECT_ENV
from repro.obs.check import (
    CheckReport,
    ConsensusChecker,
    TraceChecker,
    Violation,
    check_events,
    default_checkers,
    run_checkers,
)
from repro.obs.events import EVENT_KINDS, Event
from repro.runtime.harness import execute_request
from repro.runtime.space import NAMED_CELLS, ScenarioSpace, vectorized_space
from repro.runtime.sweep import SweepRunner, check_cell
from tests import test_trace_oracle


def reference_run_checkers(
    events: Iterable[Event], checkers: Sequence[TraceChecker]
) -> CheckReport:
    """``run_checkers`` before kind dispatch: every checker sees every
    event.  Kept as the oracle's reference implementation."""
    count = 0
    for index, event in enumerate(events):
        count = index + 1
        for checker in checkers:
            checker.feed(index, event)
    violations: list[Violation] = []
    for checker in checkers:
        checker.finish(count)
        violations.extend(checker.violations)
    violations.sort(key=lambda v: (v.index, v.checker))
    return CheckReport(
        checkers=tuple(checker.name for checker in checkers),
        num_events=count,
        violations=violations,
    )


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


#: Every checker the package ships (test-local subclasses excluded).
SHIPPED_CHECKERS = [
    cls for cls in _subclasses(TraceChecker) if cls.__module__.startswith("repro.")
]
DECLARING = [cls for cls in SHIPPED_CHECKERS if cls.kinds is not None]


def _variants(kind: str) -> list[Event]:
    """Round-tagged, time-tagged and untagged events of one kind, with
    every field a checker might look at populated."""
    value = [0, 1, 2] if kind == "round_start" else 1
    return [
        Event(kind, 1.0, round=2, pid=1, peer=2, value=value),
        Event(kind, 1.0, time=7, pid=1, peer=2, value=value),
        Event(kind, 1.0, round=2, time=7, pid=2, peer=1, value=value),
        Event(kind, 1.0, pid=0, peer=0),
        Event(kind, 1.0),
    ]


#: A prefix that leaves every shipped checker with non-trivial state.
PRIMER = [
    Event("round_start", 1.0, round=1, value=[0, 1, 2]),
    Event("msg_sent", 2.0, round=1, pid=1, peer=0),
    Event("msg_withheld", 3.0, round=1, pid=1, peer=0),
    Event("crash", 4.0, round=1, pid=0, value=False),
    Event("crash", 5.0, time=3, pid=2),
    Event("suspect", 6.0, time=4, pid=1, peer=2, value=1),
    Event("decide", 7.0, round=1, pid=1, value=0),
    Event("halt", 8.0, round=1, pid=1),
]


def assert_inert_outside_kinds(checker: TraceChecker) -> None:
    """``feed`` on any event whose kind ``checker`` did not declare
    leaves ``vars(checker)`` — ``violations`` included — unchanged."""
    assert checker.kinds is not None
    for kind in sorted((EVENT_KINDS | {"no-such-kind"}) - checker.kinds):
        for event in _variants(kind):
            before = copy.deepcopy(vars(checker))
            checker.feed(99, event)
            assert vars(checker) == before, (
                f"{type(checker).__name__}.feed changed state on a "
                f"{kind!r} event it does not declare: {event}"
            )


class TestDeclaredKinds:
    def test_three_checkers_declare_and_three_take_everything(self):
        assert {cls.name for cls in DECLARING} == {
            "detector.accuracy",
            "synchrony.rs",
            "consensus",
        }
        assert {cls.name for cls in SHIPPED_CHECKERS if cls.kinds is None} == {
            "ordering",
            "detector.completeness",
            "synchrony.rws",
        }
        assert TraceChecker.kinds is None

    @pytest.mark.parametrize("cls", DECLARING, ids=lambda cls: cls.name)
    def test_declared_kinds_are_event_kinds(self, cls):
        assert isinstance(cls.kinds, frozenset)
        assert cls.kinds and cls.kinds <= EVENT_KINDS

    @pytest.mark.parametrize("cls", DECLARING, ids=lambda cls: cls.name)
    def test_feed_is_inert_outside_declared_kinds(self, cls):
        assert_inert_outside_kinds(cls())
        primed = cls()
        for index, event in enumerate(PRIMER):
            primed.feed(index, event)
        assert_inert_outside_kinds(primed)

    @pytest.mark.parametrize("cls", DECLARING, ids=lambda cls: cls.name)
    def test_primer_reaches_every_declared_kind(self, cls):
        # The primed half of the test above is only as good as PRIMER.
        assert cls.kinds <= {event.kind for event in PRIMER}

    def test_the_inertness_check_catches_an_understated_kinds(self):
        class Understated(ConsensusChecker):
            kinds = frozenset({"crash"})  # feed also acts on decide

        with pytest.raises(AssertionError, match="does not declare"):
            assert_inert_outside_kinds(Understated())

    def test_dispatch_skips_exactly_the_undeclared_kinds(self):
        fed: list[tuple[str, str]] = []

        def recording(base):
            class Recording(base):
                def feed(self, index, event):
                    fed.append((self.name, event.kind))
                    super().feed(index, event)

            return Recording()

        suite = [recording(cls) for cls in (*SHIPPED_CHECKERS, TraceChecker)]
        events = [
            Event(kind, 1.0, round=1, pid=0, peer=1)
            for kind in sorted(EVENT_KINDS)
        ]
        events.append(Event("no-such-kind", 1.0))
        run_checkers(events, suite)
        assert fed == [
            (checker.name, event.kind)
            for event in events
            for checker in suite
            if checker.kinds is None or event.kind in checker.kinds
        ]


class Differential:
    """``run_checkers`` that also runs the reference loop on a pristine
    copy of the suite and insists on the same report and end state."""

    def __init__(self) -> None:
        self.compared = 0
        self.events = 0
        self.violations = 0

    def __call__(
        self, events: Iterable[Event], checkers: Sequence[TraceChecker]
    ) -> CheckReport:
        events = list(events)
        twins = copy.deepcopy(list(checkers))
        report = run_checkers(events, checkers)
        reference = reference_run_checkers(events, twins)
        assert dataclasses.asdict(report) == dataclasses.asdict(reference)
        assert report.describe() == reference.describe()
        assert [vars(c) for c in checkers] == [vars(c) for c in twins]
        self.compared += 1
        self.events += len(events)
        self.violations += len(report.violations)
        return report


@pytest.fixture
def differential(monkeypatch) -> Differential:
    """Route every ``run_checkers`` call — ``check_events``' and
    ``tests/test_trace_oracle.py``'s own — through the comparison."""
    wrapper = Differential()
    monkeypatch.setattr(check_module, "run_checkers", wrapper)
    monkeypatch.setattr(test_trace_oracle, "run_checkers", wrapper)
    return wrapper


class TestDispatchedEqualsReference:
    @pytest.mark.parametrize("name", sorted(NAMED_CELLS))
    def test_named_cells(self, name, differential):
        request = NAMED_CELLS[name].request
        result = execute_request(request)
        verdict = check_cell(request, result)
        assert differential.compared == 1
        assert differential.events == len(result.events)
        assert verdict.ok

    def test_named_cells_as_templates(self, differential):
        """The vector result path: value-free checkers once per
        template, consensus over its own kinds per cell."""
        space = vectorized_space(
            ScenarioSpace(
                name="named",
                requests=tuple(
                    cell.request
                    for cell in NAMED_CELLS.values()
                    if cell.request.engine == "rounds"
                ),
            )
        )
        for request, result in zip(
            space.requests, SweepRunner(jobs=1).run(space).results
        ):
            report = check_events(
                result.events, model=request.model, initial_values=request.values
            )
            reference = reference_run_checkers(
                list(result.events),
                default_checkers(
                    model=request.model, initial_values=request.values
                ),
            )
            assert dataclasses.asdict(report) == dataclasses.asdict(reference)
        assert differential.compared > 0

    def test_hand_made_traces_of_the_oracle_tests(self, differential):
        """Every violating (and clean) trace ``test_trace_oracle.py``
        builds by hand, by running its tests through the comparison."""
        ran = 0
        for _, cls in inspect.getmembers(test_trace_oracle, inspect.isclass):
            if not cls.__name__.startswith("Test"):
                continue
            for name, method in inspect.getmembers(cls, inspect.isfunction):
                if not name.startswith("test_"):
                    continue
                assert list(inspect.signature(method).parameters) == ["self"]
                method(cls())
                ran += 1
        assert ran >= 29
        assert differential.compared >= 28
        assert differential.violations >= 25

    @pytest.mark.parametrize("engine", FUZZ_ENGINES)
    def test_fuzz_stream(self, engine, differential):
        for index in range(12):
            request = generate_case(index, seed=22, engine=engine)
            assert check_cell(request, execute_request(request)).ok
        assert differential.compared == 12

    def test_planted_bug_is_still_refuted(self, differential, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "ss-drop-received")
        failing = 0
        for index in range(12):
            request = generate_case(index, seed=0, engine="rs_on_ss")
            failing += bool(run_case(request))
        assert failing >= 3
        assert differential.compared >= 12
