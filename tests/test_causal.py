"""Tests for happens-before reconstruction, critical paths and forensics.

The causal layer (``repro.obs.causal`` / ``repro.obs.critical``) must
recover the paper's latency structure from traces alone: the critical
path behind every decision counts exactly the Λ message hops of
``analysis/latency.py`` (Λ(A1)=1, Λ(FloodSet/RWS)=2 on failure-free
runs), and the send→delivery pairing rebuilt from a trace alone must
be the engine's own.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import latency_profile
from repro.cli.main import main
from repro.obs import events_from_jsonl_lines
from repro.obs.causal import annotate, round_msg_id
from repro.obs.critical import (
    causal_summary,
    critical_paths,
    suspicion_forensics,
    verify_round_paths,
)
from repro.obs.diff import local_view
from repro.obs.events import EventLog, clock_kind, logical_clock
from repro.obs.report import causal_cells
from repro.obs.schema import validate_event_dict
from repro.rounds import RoundModel
from repro.runtime import (
    ALGORITHM_FACTORIES,
    SweepRunner,
    e10_lambda_space,
    execute_request,
    harness_for,
    oracle_sweep_space,
)
from tests.reference import clocks


@pytest.fixture(scope="module")
def lambda_cells():
    """Every failure-free Λ-space cell, executed once: (request, result)."""
    space = e10_lambda_space()
    return [(request, execute_request(request)) for request in space.requests]


@pytest.fixture(scope="module")
def oracle_sweep():
    """A small chaos sweep (workloads + adversaries + emulations)."""
    space = oracle_sweep_space(count=3)
    sweep = SweepRunner(jobs=1).run(space)
    by_name = {request.name: request for request in space.requests}
    return [(by_name[result.name], result) for result in sweep.results]


class TestLambdaCriterion:
    """Critical-path hop counts recover the paper's Λ measure."""

    def test_path_length_equals_decide_latency_per_run(self, lambda_cells):
        for request, result in lambda_cells:
            paths = critical_paths(result.events)
            assert paths, request.name
            for path in paths:
                assert path.length == result.latency, request.name

    def test_max_path_over_configs_is_lambda(self, lambda_cells):
        observed: dict[tuple[str, str], int] = {}
        for request, result in lambda_cells:
            longest = max(p.length for p in critical_paths(result.events))
            key = (request.algorithm, request.model)
            observed[key] = max(observed.get(key, 0), longest)
        for (algorithm, model), longest in observed.items():
            profile = latency_profile(
                ALGORITHM_FACTORIES[algorithm](), 3, 1, RoundModel[model]
            )
            assert longest == profile.Lambda, algorithm

    def test_paper_separation_shows_in_the_depths(self, lambda_cells):
        depths = {
            request.algorithm: max(
                p.length for p in critical_paths(result.events)
            )
            for request, result in lambda_cells
        }
        assert depths["a1"] == 1
        assert depths["floodset-ws"] == 2

    def test_no_lambda_bound_anomalies(self, lambda_cells):
        for request, result in lambda_cells:
            assert verify_round_paths(result.events) == [], request.name


class TestOracleSweep:
    """The chaos sweep stays anomaly-free under causal analysis."""

    def test_every_cell_verifies(self, oracle_sweep):
        analyzed = 0
        for request, result in oracle_sweep:
            if not result.events:
                continue
            analyzed += 1
            assert verify_round_paths(result.events) == [], request.name
        assert analyzed > 0

    def test_causal_cells_summary(self, oracle_sweep):
        summary = causal_cells(
            (request.name, result.events) for request, result in oracle_sweep
        )
        assert summary is not None
        assert summary["anomaly_cells"] == []
        assert summary["clocks"] == ["logical"]
        assert "warning" not in summary
        assert any(
            cell["max_path_length"] >= 2 for cell in summary["cells"]
        )

    def test_causal_cells_warns_on_mixed_clocks(self, oracle_sweep):
        import dataclasses

        _, result = next(
            (req, res) for req, res in oracle_sweep if res.events
        )
        walled = [
            dataclasses.replace(event, ts=0.001 * (i + 1))
            for i, event in enumerate(result.events)
        ]
        summary = causal_cells(
            [
                ("logical-cell", result.events),
                ("wall-cell", dataclasses.replace(result, events=walled).events),
            ]
        )
        assert sorted(summary["clocks"]) == ["logical", "wall"]
        assert "warning" in summary


def _graph_form(graph):
    return (graph.proc, graph.msg_ids, graph.parents)


def _step_message_uids(events, run):
    """``event index -> message uid`` of every step-kernel message event,
    read off the step run alone: the i-th ``msg_sent`` is the i-th step
    that sent, the j-th ``msg_delivered`` the j-th received uid."""
    sent = [step.sent_uid for step in run.schedule.steps if step.sent_uid is not None]
    received = [uid for step in run.schedule.steps for uid in step.received_uids]
    uids = {}
    for kind, stream in (("msg_sent", sent), ("msg_delivered", received)):
        indices = [i for i, e in enumerate(events) if e.kind == kind and e.time is not None]
        assert len(indices) == len(stream)
        uids.update(zip(indices, stream))
    return uids


class TestByteParity:
    """Tracing leaves serialized traces as they are, and the pairing
    rebuilt from a trace alone is the engine's own."""

    def test_serialized_events_carry_no_extra(self, lambda_cells):
        # Every serialized key is a schema field: no side band.
        for _, result in lambda_cells:
            for event in result.events:
                assert validate_event_dict(event.to_dict()) == []

    def test_causal_observer_leaves_trace_byte_identical(self):
        # A traced run's graph is the graph of its JSONL round trip.
        request = e10_lambda_space().requests[0]
        plain = execute_request(request)
        log = EventLog(clock=logical_clock())
        harness_for(request.engine).execute(request, log)
        lines = list(log.jsonl_lines())
        assert [e.to_json() for e in plain.events] == lines
        reread = events_from_jsonl_lines(lines)
        graph = annotate(log.events)
        assert clocks.message_pairs(graph)
        assert _graph_form(annotate(reread)) == _graph_form(graph)

    def test_engine_ids_match_structural_pairing_on_rounds(self):
        request = next(
            r for r in oracle_sweep_space(count=2).requests
            if r.engine == "rounds"
        )
        log = EventLog(clock=logical_clock())
        run = harness_for(request.engine).execute(request, log)
        events = log.events
        pairs = clocks.message_pairs(annotate(events))
        receipts = [
            i for i, e in enumerate(events)
            if e.kind in ("msg_delivered", "msg_withheld")
        ]
        assert sorted(pairs) == receipts
        for dst, src in pairs.items():
            send, receipt = events[src], events[dst]
            key = (receipt.round, receipt.peer, receipt.pid)
            assert send.kind == "msg_sent"
            assert (send.round, send.peer, send.pid) == key
            assert (key[1], key[2]) in run.rounds[key[0] - 1].sent

    def test_emulation_structural_pairs_subset_of_engine(self):
        # The step run's message uids are the ground truth: structural
        # matching never pairs wrongly, and what it leaves unpaired is
        # a lifted ``msg_withheld`` (the step sends carry no round).
        unmatched = 0
        for seed in range(30):
            for request in oracle_sweep_space(count=6, seed=seed).requests:
                if request.engine not in ("rs_on_ss", "rws_on_sp"):
                    continue
                log = EventLog(clock=logical_clock())
                trace = harness_for(request.engine).execute(request, log)
                events = log.events
                uids = _step_message_uids(events, trace.run)
                send_of = {
                    uids[i]: i for i, e in enumerate(events) if e.kind == "msg_sent"
                }
                true_pairs = {
                    dst: send_of[uids[dst]]
                    for dst, e in enumerate(events)
                    if e.kind == "msg_delivered"
                }
                true_pairs.update(
                    (dst, send_of[trace.sent_index[(e.peer, e.pid, e.round)]])
                    for dst, e in enumerate(events)
                    if e.kind == "msg_withheld"
                )
                structural = clocks.message_pairs(annotate(events))
                assert set(structural.items()) <= set(true_pairs.items())
                for dst in set(true_pairs) - set(structural):
                    assert events[dst].kind == "msg_withheld"
                    unmatched += 1
        assert unmatched


class TestCausalGraph:
    """Clock and cone invariants of the reconstructed DAG."""

    @pytest.fixture(scope="class")
    def graph_and_events(self):
        request = next(
            r for r in e10_lambda_space().requests
            if r.algorithm == "floodset-ws"
        )
        result = execute_request(request)
        return annotate(result.events), result.events

    def test_lamport_increases_along_edges(self, graph_and_events):
        graph, _ = graph_and_events
        lamport = clocks.lamport(graph)
        for edge in clocks.edges(graph):
            assert lamport[edge.src] < lamport[edge.dst]
        for index in graph.decide_indices():
            assert all(lamport[i] <= lamport[index] for i in graph.cone(index))

    def test_vector_clock_dominates_parents(self, graph_and_events):
        graph, _ = graph_and_events
        vector = clocks.vector(graph)
        for edge in clocks.edges(graph):
            for pid, tick in vector[edge.src].items():
                assert vector[edge.dst].get(pid, 0) >= tick
        for index in graph.decide_indices():
            for i in graph.cone(index):
                assert all(
                    vector[index].get(pid, 0) >= tick
                    for pid, tick in vector[i].items()
                )

    def test_decide_cone_spans_all_processes(self, graph_and_events):
        graph, events = graph_and_events
        for index in graph.decide_indices():
            cone_pids = {
                graph.proc[i]
                for i in graph.cone(index)
                if graph.proc[i] is not None
            }
            # FloodSet's decision causally depends on every process.
            assert cone_pids == {0, 1, 2}

    def test_round_msg_id_is_stable(self):
        assert round_msg_id(2, 0, 1) == "r2:0>1"

    def test_clock_kind(self, graph_and_events):
        _, events = graph_and_events
        assert clock_kind(events) == "logical"


class TestIndistinguishability:
    """Local views — causal pasts — mechanize Theorem 3.1's premise."""

    @pytest.fixture(scope="class")
    def quadruple(self):
        from repro.sdd import SP_CANDIDATE_FACTORIES, sdd_quadruple_traces

        return sdd_quadruple_traces(SP_CANDIDATE_FACTORIES["timeout"])

    def test_receiver_cones_coincide_within_pairs(self, quadruple):
        from repro.sdd.spec import RECEIVER

        assert local_view(quadruple["r0"].events, RECEIVER) == local_view(
            quadruple["r0'"].events, RECEIVER
        )
        assert local_view(quadruple["r1"].events, RECEIVER) == local_view(
            quadruple["r1'"].events, RECEIVER
        )

    def test_all_four_runs_blind_the_receiver(self, quadruple):
        # The timeout candidate decides before the delayed message can
        # arrive, so *every* run in the quadruple looks the same to the
        # receiver — the mechanized form of why the candidate fails SDD.
        from repro.sdd.spec import RECEIVER

        views = {
            local_view(trace.events, RECEIVER)
            for trace in quadruple.values()
        }
        assert len(views) == 1

    def test_cone_signature_separates_different_inputs(self, lambda_cells):
        # Two failure-free FloodSetWS runs with different initial values
        # present different views to a process *before* it decides: the
        # inputs its causal past rests on differ, whatever it decides.
        cells = [
            (request, result)
            for request, result in lambda_cells
            if request.algorithm == "floodset-ws"
        ]

        def view(cell, pid=0, with_inputs=True):
            request, result = cell
            decided = next(
                index
                for index, event in enumerate(result.events)
                if event.kind == "decide" and event.pid == pid
            )
            inputs = request.values if with_inputs else None
            return local_view(result.events, pid, upto=decided, inputs=inputs)

        assert cells[0][0].values != cells[-1][0].values
        assert view(cells[0]) != view(cells[-1])
        assert view(cells[0]) == view(cells[0])
        # A trace carries no payloads: without the inputs, the two
        # failure-free runs look alike until the decision.
        assert view(cells[0], with_inputs=False) == view(
            cells[-1], with_inputs=False
        )


class TestSchema:
    """Side-band fields are no part of the event schema."""

    def test_bad_msg_id_type_rejected(self):
        # A msg_id is refused whatever its type, at the top level and
        # inside an ``extra`` object alike.
        for event in (
            {"kind": "msg_sent", "ts": 1.0, "pid": 1, "peer": 0,
             "msg_id": [1, 2]},
            {"kind": "msg_sent", "ts": 1.0, "pid": 1, "peer": 0,
             "extra": {"msg_id": 3}},
        ):
            problems = validate_event_dict(event)
            assert any("unknown fields" in p for p in problems), problems


class TestSuspicionForensics:
    """A suspicion is justified exactly when its target's crash is in
    the trace (P's strong accuracy)."""

    def test_justified_by_a_crash_in_the_trace(self):
        log = EventLog(clock=logical_clock())
        log.crash(2, time=3)
        log.suspect(0, 2, time=5, delay=2)
        log.suspect(1, 0, time=6)
        reports = [report.to_dict() for report in suspicion_forensics(log.events)]
        assert reports == [
            {"observer": 0, "suspected": 2, "index": 1, "delay": 2,
             "justified": True},
            {"observer": 1, "suspected": 0, "index": 2, "justified": False},
        ]
        assert causal_summary(log.events)["suspicions"] == reports


class TestCausalCLI:
    """`repro causal` over traces and run directories."""

    @pytest.fixture(scope="class")
    def det_trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("det") / "trace.jsonl"
        assert main(
            ["trace", "floodset-rws-violation", "--jsonl", str(path)]
        ) == 0
        return path

    def test_trace_report(self, det_trace, capsys):
        assert main(["causal", str(det_trace)]) == 0
        out = capsys.readouterr().out
        assert "message hops" in out
        assert "decide" in out

    def test_trace_json(self, det_trace, capsys):
        assert main(["causal", str(det_trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["decisions"]
        assert summary["clock"] == "logical"

    def test_decide_filter(self, det_trace, capsys):
        deciders = [
            json.loads(line)["pid"]
            for line in det_trace.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["kind"] == "decide"
        ]
        assert main(
            ["causal", str(det_trace), "--decide", str(deciders[0])]
        ) == 0
        assert main(["causal", str(det_trace), "--decide", "99"]) == 2
        capsys.readouterr()

    def test_suspect_filter_without_suspicions(self, det_trace, capsys):
        assert main(["causal", str(det_trace), "--suspect", "99"]) == 2
        capsys.readouterr()

    def test_diagram(self, det_trace, capsys):
        assert main(["causal", str(det_trace), "--diagram"]) == 0
        out = capsys.readouterr().out
        assert "-- round" in out
        assert "*" in out  # the marked critical path

    def test_rundir_report(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert main(
            [
                "sweep",
                "oracle-sweep",
                "--count",
                "2",
                "--run-dir",
                str(root),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["causal", str(root), "--json"]) == 0
        cells = json.loads(capsys.readouterr().out)
        assert cells
        assert all(cell["max_path_length"] >= 1 for cell in cells)
        assert main(["causal", str(root)]) == 0
        out = capsys.readouterr().out
        assert "path-hops" in out

    def test_missing_rundir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["causal", str(empty)]) == 2
        capsys.readouterr()


class TestDiffClockWarning:
    """`repro diff` flags wall-vs-logical timestamp mixes."""

    def test_warns_on_mixed_clocks(self, tmp_path, capsys):
        logical = tmp_path / "logical.jsonl"
        assert main(
            ["trace", "floodset-rws-violation", "--jsonl", str(logical)]
        ) == 0
        capsys.readouterr()
        wall = tmp_path / "wall.jsonl"
        lines = []
        for i, line in enumerate(
            logical.read_text(encoding="utf-8").splitlines()
        ):
            data = json.loads(line)
            data["ts"] = 0.001 * (i + 1)
            lines.append(json.dumps(data))
        wall.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["diff", str(logical), str(wall)]) == 0
        err = capsys.readouterr().err
        assert "logical clock" in err and "wall clock" in err

    def test_silent_on_matching_clocks(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "floodset-rws-violation", "--jsonl", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["diff", str(trace), str(trace)]) == 0
        assert "warning" not in capsys.readouterr().err
