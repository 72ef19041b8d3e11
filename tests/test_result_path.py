"""The template⊕holes result path, checked against the per-cell reference.

Every result travels from the engine to disk as *(trace template,
decide values)*, whichever engine produced it; the oracle, the causal
summary, the merged trace and the result store each do their
value-free work once per template.  Everything here pins one of those
shortcuts to the plain per-cell computation it replaced — on
materialized events, byte for byte — or feeds the packed store the
damage a killed writer, a foreign process or an old schema would leave
behind.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from collections import Counter
from contextlib import closing
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.inject import INJECT_ENV
from repro.obs import artifacts
from repro.obs.artifacts import RunDir
from repro.obs.events import EVENT_KINDS, Event
from repro.obs.report import (
    _causal_facts,
    causal_cells,
    summarize_sweep,
    summary_problems,
)
from repro.runtime import (
    ExecutionRequest,
    ResultCache,
    SweepRunner,
    check_cell,
    run_space,
    space_by_name,
)
from repro.runtime.campaign import CampaignLeg
from repro.runtime.space import ScenarioSpace, vectorized_space
from repro.runtime.request import ExecutionResult
from repro.runtime.sweep import SweepResult, open_merged_sink
from repro.obs.metrics import MetricsRegistry
from repro.workloads import failure_free
from repro.obs.template import TraceTemplate
from tests.reference.records import (
    audit_line,
    merged_lines,
    store_cell_line,
    store_template_line,
    template_digest,
)
from tests.reference_keys import reference_cache_key

#: Every registered space of round-executor cells.
ROUND_SPACES = ("oracle-sweep", "e10-lambda", "random-rs", "random-rws")


def _space(name, engine="vector", **kwargs):
    space = space_by_name(name, **kwargs)
    return vectorized_space(space) if engine == "vector" else space


# ---------------------------------------------------------------------------
# The merged trace: spliced lines vs re-stamped, re-serialized events
# ---------------------------------------------------------------------------


#: (seed, sha256 of the 2000-cell ``random-rs`` merged trace, vector run id).
LEDGER_PINS = [
    (7, "2c6c39cbe4a13d3ff99e5f59e35775678f1ae50d8864d01e07352b0db6ae08fe",
     "c86c36d837ffbe06"),
    (23, "e133f6da2185cf944cf72c3f9c00fec57754a35d2a399eda170537433a745005",
     "0079ec99e8c12481"),
]


class _Opaque:
    """Not JSON-serializable: reaches the trace through ``default=repr``."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f'<opaque {self.tag} "ts": 0.0>'


class TestMergedTraceParity:
    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    @pytest.mark.parametrize("name", ROUND_SPACES)
    def test_spliced_lines_equal_the_reference(self, name, engine, tmp_path):
        space = _space(name, engine)
        store = str(tmp_path / "store")
        cold = SweepRunner(cache=ResultCache(store)).run(space)
        served = SweepRunner(cache=ResultCache(store)).run(space)
        assert (cold.executed, served.executed) == (len(space.requests), 0)
        for sweep in (cold, served):
            assert list(sweep.merged_jsonl_lines()) == [
                event.to_json() for event in sweep.merged_events()
            ]
        assert list(cold.merged_jsonl_lines()) == list(
            served.merged_jsonl_lines()
        )

    def test_write_counts_the_lines_it_wrote(self, tmp_path):
        sweep = run_space(_space("e10-lambda"))
        path = tmp_path / "merged.jsonl"
        count = sweep.write_merged_jsonl(str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert count == len(lines) == sum(len(r.events) for r in sweep.results)
        assert lines == list(sweep.merged_jsonl_lines())

    def test_the_writer_matches_the_reference_where_the_splice_can_go_wrong(
        self, tmp_path
    ):
        space = _hostile_space()
        store = str(tmp_path / "store")
        cold = SweepRunner(cache=ResultCache(store)).run(space)
        served = SweepRunner(cache=ResultCache(store)).run(space)
        assert (cold.executed, served.executed) == (len(space.requests), 0)
        kinds = Counter(request.engine for request in cold.requests)
        assert kinds["vector"] >= 11 and kinds["rounds"] >= 2
        assert kinds["rs_on_ss"] == 1
        # One adversary: the store hands the round cells of each trace
        # one template, whatever their holes.
        rounds = [
            result
            for request, result in zip(cold.requests, cold.results)
            if request.engine != "rs_on_ss"
        ]
        assert len({id(result.template) for result in rounds}) == len(
            {result.template.digest for result in rounds}
        ) == 3  # floodset-ws's, a1's, and a1's with an undecided None
        for tag, sweep in (("cold", cold), ("served", served)):
            path = tmp_path / f"{tag}.jsonl"
            count = sweep.write_merged_jsonl(str(path))
            reference = [event.to_json() for event in sweep.merged_events()]
            assert count == len(reference)
            assert path.read_bytes() == (
                "\n".join(reference) + "\n"
            ).encode("utf-8")
            assert list(sweep.merged_jsonl_lines()) == reference
        assert (tmp_path / "cold.jsonl").read_bytes() == (
            tmp_path / "served.jsonl"
        ).read_bytes()

    def test_percent_signs_anywhere_in_an_event_survive_the_format(
        self, tmp_path
    ):
        events = [
            Event("msg_sent", 1.0, round=1, pid=0, peer=1, value="%d %s"),
            Event("suspect", 2.0, pid=0, peer=1, value="100%"),
            Event("decide", 3.0, round=1, pid=0, value="%"),
            Event("halt", 4.0, pid=0,
                  value={"%(x)s": "%%", "note": "%.0f", "ts": 0.0}),
        ]
        first = ExecutionResult(name="a", request_key="k", events=events)
        results = [first, replace(first, name="b"), ExecutionResult(
            name="c", request_key="k", events=[*events[:2], replace(
                events[2], value=_Opaque("%s"))],
        )]
        sweep = SweepResult(
            "percent", [], results, executed=3, cached=0, distinct=3,
            metrics=MetricsRegistry(),
        )
        path = tmp_path / "merged.jsonl"
        assert sweep.write_merged_jsonl(str(path)) == 11
        reference = [event.to_json() for event in sweep.merged_events()]
        assert path.read_text(encoding="utf-8").splitlines() == reference
        assert list(sweep.merged_jsonl_lines()) == reference

    def test_the_tick_spelling_holds_below_its_bound(self, monkeypatch):
        from repro.runtime import sweep as sweep_module

        bound = sweep_module._EXACT_TICKS
        for tick in (1, 10**15, bound - 1):
            assert "%d.0" % tick == float.__repr__(float(tick))
        assert "%d.0" % (bound + 1) != float.__repr__(float(bound + 1))
        sweep = run_space(_space("e10-lambda"))
        monkeypatch.setattr(sweep_module, "_EXACT_TICKS", 40)
        with pytest.raises(OverflowError, match="tick"):
            list(sweep.merged_jsonl_lines())

    def test_cross_type_equal_decide_values_do_not_share_a_suffix(self):
        sweep = run_space(_hostile_space())
        decided = {}
        for line in sweep.merged_jsonl_lines():
            if '"kind": "decide"' in line:
                decided.setdefault(line.split('"value": ')[1], None)
        # Equal in Python, distinct on the wire — each must appear.
        for text in ("0}", "false}", "0.0}", "-0.0}", '"0"}',
                     "[0, 1]}", "[false, true]}", '"%d"}', '"%%"}',
                     '"<opaque %s \\"ts\\": 0.0>"}'):
            assert text in decided, (text, sorted(decided))

    def test_an_empty_space_writes_an_empty_trace(self, tmp_path):
        sweep = run_space(ScenarioSpace.explicit("empty", []))
        path = tmp_path / "empty.jsonl"
        assert sweep.write_merged_jsonl(str(path)) == 0
        assert path.read_bytes() == b""
        assert list(sweep.merged_jsonl_lines()) == sweep.merged_events() == []

    def test_the_writer_closes_a_sink_it_was_handed(self, tmp_path):
        sweep = run_space(_space("e10-lambda"))
        path = tmp_path / "merged.jsonl"
        sink = open_merged_sink(str(path))
        assert sweep.write_merged_jsonl(sink) == len(sweep.merged_events())
        assert sink.closed
        assert path.read_text(encoding="utf-8").splitlines() == list(
            sweep.merged_jsonl_lines()
        )
        with pytest.raises(ConfigurationError, match="cannot write merged trace"):
            open_merged_sink(str(tmp_path / "missing" / "merged.jsonl"))

    @pytest.mark.parametrize("seed, trace_sha256, run_id", LEDGER_PINS)
    def test_ledger_space_bytes_are_the_parents(
        self, seed, trace_sha256, run_id, tmp_path
    ):
        """Pinned at the parent of the PR that rebuilt the writer and
        interned adversaries and templates."""
        space = _space("random-rs", count=2000, seed=seed)
        run = RunDir.open(
            tmp_path / "runs", kind="sweep", name=space.name,
            identity=sorted(r.cache_key() for r in space.requests),
        )
        assert run.run_id == run_id
        path = tmp_path / "merged.jsonl"
        run_space(space).write_merged_jsonl(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha256


def _hostile_space() -> ScenarioSpace:
    """Cells of every kind the merged-trace writer handles, with decide
    values that are equal in Python and distinct in JSON spread over
    the cells of one adversary."""
    scenario = failure_free(3)
    opaque = _Opaque(1)

    def cell(name, values, engine="vector", algorithm="floodset-ws"):
        return ExecutionRequest(
            name=name, engine=engine, algorithm=algorithm, values=values,
            t=1, model="RWS", scenario=scenario, max_rounds=4,
            check_consensus=False,
        )

    uniform = {
        "int": 0, "bool": False, "float": 0.0, "negzero": -0.0, "str": "0",
        "pair": (0, 1), "boolpair": (False, True), "big": 2**70,
    }
    cells = [cell(f"v-{tag}", (value,) * 3) for tag, value in uniform.items()]
    cells += [
        # ``%`` in a decide value and in a cell name: the merged trace's
        # blocks are %-formats, and a name reaches the store and audit
        # lines; so do a quote, non-ASCII text and U+2028.
        cell('name-%d%%s-"quoted"', ("%d",) * 3),
        cell("name-\u00e9-\u2028-\u00fcn\u00ef", ("%%",) * 3),
        # A1 decides initial values verbatim: any object is a hole.
        cell("v-opaque", (opaque, 1, 2), algorithm="a1"),
        cell("v-opaque-%s", (_Opaque("%s"), 1, 2), algorithm="a1"),
        cell("v-int-again", (0, 0, 0), algorithm="a1"),
        # Declined by the kernel (cross-type-equal domain, None): inline.
        cell("fallback-mixed", (0, False, 1)),
        cell("fallback-none", (None, 1, 2), algorithm="a1"),
        cell("rounds-int", (0, 0, 0), engine="rounds"),
        cell("rounds-opaque", (opaque, opaque, opaque), engine="rounds"),
    ]
    cells += [
        request
        for request in space_by_name("oracle-sweep", count=1).requests
        if request.engine == "rs_on_ss"
    ]
    return ScenarioSpace.explicit("hostile", cells)


def _assert_splice(event: Event, ts: float) -> None:
    prefix, suffix = event.json_parts()
    assert prefix + float.__repr__(ts) + suffix == replace(event, ts=ts).to_json()


def _seeded_value(rng: random.Random, depth: int = 0):
    choice = rng.randrange(10 if depth < 2 else 7)
    if choice == 0:
        return None
    if choice == 1:
        return rng.choice([True, False, 0, 1, 1.0, -0.0, 2**70])
    if choice == 2:
        return rng.uniform(-1e9, 1e9)
    if choice == 3:
        return rng.choice(['"ts": 0.0', '{"ts": 0.0}', "é\n\\", ', "ts": '])
    if choice == 4:
        return _Opaque(rng.randrange(5))
    if choice == 5:
        return rng.choice([float("inf"), float("nan"), 1e-320])
    if choice == 6:
        return rng.randrange(-5, 5)
    if choice == 7:
        return [_seeded_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    if choice == 8:
        return tuple(_seeded_value(rng, depth + 1) for _ in range(rng.randrange(3)))
    return {
        rng.choice(["ts", "kind", "a", '"ts": 0.0', "z"]): _seeded_value(rng, depth + 1)
        for _ in range(rng.randrange(3))
    }


def _seeded_event(rng: random.Random) -> Event:
    def maybe_int():
        return rng.choice([None, rng.randrange(0, 9)])

    return Event(
        kind=rng.choice(sorted(EVENT_KINDS)),
        ts=rng.random(),
        round=maybe_int(),
        time=maybe_int(),
        pid=maybe_int(),
        peer=maybe_int(),
        value=_seeded_value(rng),
    )


class TestJsonParts:
    def test_seeded_events_splice_exactly(self):
        rng = random.Random(20260929)
        for _ in range(600):
            event = _seeded_event(rng)
            for ts in (1.0, float(rng.randrange(1, 10**7)), rng.uniform(0, 1e6)):
                _assert_splice(event, ts)

    def test_minimal_and_value_only_events(self):
        _assert_splice(Event(kind="halt", ts=0.0), 3.0)
        _assert_splice(Event(kind="decide", ts=0.0, value='"ts": 0.0'), 3.0)
        _assert_splice(Event(kind="decide", ts=0.0, value=0.0), 1e22)
        _assert_splice(Event(kind="halt", ts=0.0, value={"ts": {"ts": 0.0}}), 1e22)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs hypothesis
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:
    _scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),  # NaN and infinities included: json emits them too
        st.text(),
        st.sampled_from(['"ts": 0.0', ', "ts": 1.0}', "ts"]),
        st.builds(_Opaque, st.integers(0, 3)),
    )
    _values = st.recursive(
        _scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.tuples(inner, inner),
            st.dictionaries(st.text(max_size=6), inner, max_size=3),
        ),
        max_leaves=8,
    )
    _small = st.one_of(st.none(), st.integers(0, 12))
    _events = st.builds(
        Event,
        kind=st.sampled_from(sorted(EVENT_KINDS)),
        ts=st.floats(allow_nan=False),
        round=_small,
        time=_small,
        pid=_small,
        peer=_small,
        value=_values,
    )

    class TestJsonPartsProperty:
        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(event=_events, ts=st.floats(allow_nan=False, allow_infinity=False))
        def test_splice_equals_replace_then_to_json(self, event, ts):
            _assert_splice(event, ts)


# ---------------------------------------------------------------------------
# One encoding per event shape: digest, store line and merged lines
# ---------------------------------------------------------------------------


#: Values that are equal in Python but print apart (``1``/``True``/``1.0``,
#: ``0.0``/``-0.0``, ``[1]``/``[True]``/``(1,)``), are not even equal to
#: themselves (NaN), or print through their ``repr`` — and the text an
#: encoder is most likely to mangle: ``%``, non-ASCII and key order.
LOOKALIKES = (
    1, True, 1.0, 0, False, 0.0, -0.0, None, "1", "%d%%s", "é\u2028ü",
    [1], [True], (1,), [1.0], [1, True], [[1]], [], (),
    float("nan"), float("inf"), float("-inf"), 2**70,
    {"b": 1, "a": [True]}, _Opaque("%s"),
)


def _lookalike_templates():
    """Hand-built templates: every lookalike as a value in one template
    and in one of its own, the field types varied the same way, and
    decide events whose holes are the lookalikes."""
    def event(value, ts=1.0, kind="msg_sent", **fields):
        fields = {"round": 1, "pid": 0, "peer": 1, **fields}
        return Event(kind, ts, value=value, **fields)

    together = [
        event(value, float(at)) for at, value in enumerate(LOOKALIKES, 1)
    ]
    fields = [
        event(None, 1.0, round=round_, pid=pid)
        for round_, pid in ((1, 1), (True, True), (1.0, 1), (1, "1"))
    ]
    stamps = [event(0, ts) for ts in (3, 1e16, 1e-7, 2.5, -0.0)]
    decides = [event(None, 1.0, kind="round_start", pid=None, peer=None)] + [
        event(None, float(at), kind="decide", pid=at, peer=None)
        for at in range(2, 5)
    ]
    templates = [
        (TraceTemplate(together, []), ()),
        (TraceTemplate(fields, []), ()),
        (TraceTemplate(stamps, []), ()),
        (TraceTemplate([], []), ()),
    ]
    templates += [
        (TraceTemplate([event(value)], []), ()) for value in LOOKALIKES
    ]
    holes = [LOOKALIKES[at: at + 3] for at in range(0, len(LOOKALIKES), 3)]
    decided = TraceTemplate(decides, [1, 2, 3])
    templates += [(decided, tuple(h) + (None,) * (3 - len(h))) for h in holes]
    return templates


class TestOneEncodingPerShape:
    """The digest's text, the store's template record and the merged
    trace are assembled from one set of parts per event shape; each is
    checked against the plain ``json.dumps`` of
    ``tests/reference/records.py``.  Types must reach the shape: a table
    keyed by value alone hands ``True`` the text of ``1``."""

    def test_digests_store_lines_and_merged_lines_equal_the_reference(
        self, tmp_path
    ):
        cells = _lookalike_templates()
        cache = ResultCache(tmp_path)
        results = []
        for at, (template, holes) in enumerate(cells):
            assert template.digest == template_digest(template), at
            result = ExecutionResult(
                name=f"cell-{at}", request_key=f"{at:064x}",
                events=template.fill(holes),
            )
            cache.put([result])
            results.append(result)
        cache.close()
        (shard,) = _shards(tmp_path)
        written = [
            line for line in shard.read_bytes().splitlines(keepends=True)
            if line.startswith(b'{"template": ')
        ]
        # One record per digest: equal templates share one.
        expected = {}
        for template, _ in cells:
            expected.setdefault(template.digest, store_template_line(template))
        assert written == list(expected.values())
        sweep = SweepResult(
            "lookalikes", [], results, executed=len(results), cached=0,
            distinct=len(results), metrics=MetricsRegistry(),
        )
        path = tmp_path / "merged.jsonl"
        assert sweep.write_merged_jsonl(str(path)) == sum(
            len(template.events) for template, _ in cells
        )
        assert path.read_text(encoding="utf-8").splitlines() == merged_lines(
            cells
        )


# ---------------------------------------------------------------------------
# The oracle and the causal block: per template vs per cell
# ---------------------------------------------------------------------------


def _reference_causal_block(named_plain):
    """:func:`causal_cells`' block, folded from one plain causal
    analysis per cell: no template, no memo."""
    cells, anomaly_cells = [], []
    for name, events in named_plain:
        if not events:
            continue
        facts = _causal_facts(events)
        if facts["anomalies"]:
            anomaly_cells.append(name)
        cells.append({"cell": name, **facts})
    if not cells:
        return None
    return {"cells": cells, "anomaly_cells": anomaly_cells}


def _assert_template_parity(name: str, engine: str = "vector") -> int:
    """Check ``name``'s sweep on ``engine`` both ways; returns the
    template count.

    The reference side is the materialized event list, handed straight
    to the oracle's plain path and to the causal analysis — never a
    result, which would factor it again.
    """
    sweep = run_space(_space(name, engine))
    plain_events = []
    templates = set()
    for request, result in zip(sweep.requests, sweep.results):
        plain = list(result.events)
        plain_events.append((request.name, plain))
        templates.add(result.template.digest)
        # check_cell reads nothing of a result but its events.
        reference = check_cell(request, SimpleNamespace(events=plain))
        assert check_cell(request, result) == reference, request.name
        assert causal_cells(
            [(request.name, result.events)]
        ) == _reference_causal_block([(request.name, plain)]), request.name
    assert causal_cells(
        (request.name, result.events)
        for request, result in zip(sweep.requests, sweep.results)
    ) == _reference_causal_block(plain_events)
    return len(templates)


class TestPerTemplateAnalyses:
    @pytest.mark.parametrize("engine", ("vector", "rounds"))
    @pytest.mark.parametrize("name", ROUND_SPACES)
    def test_cell_checks_and_causal_block_match_per_cell(self, name, engine):
        assert _assert_template_parity(name, engine) > 0

    def test_parity_holds_under_a_planted_bug(self, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, "ss-drop-received")
        assert _assert_template_parity("oracle-sweep") > 0

    def test_one_causal_summary_per_template(self, monkeypatch):
        from repro.obs import critical

        calls = []
        original = critical.causal_summary

        def counting(events, **kwargs):
            calls.append(len(events))
            return original(events, **kwargs)

        monkeypatch.setattr(critical, "causal_summary", counting)
        sweep = run_space(_space("random-rs", count=60, seed=7))
        block = causal_cells(
            (request.name, result.events)
            for request, result in zip(sweep.requests, sweep.results)
        )
        templates = {id(result.template) for result in sweep.results}
        assert len(block["cells"]) == 60
        assert len(calls) == len(templates) < 60

    def test_template_results_hold_no_events_until_read(self):
        sweep = run_space(_space("random-rs", count=20, seed=7), check=True)
        assert sweep.checks_ok
        list(sweep.merged_jsonl_lines())
        assert all(result.events._filled is None for result in sweep.results)
        assert sum(len(result.events) for result in sweep.results) == len(
            sweep.merged_events()
        )


# ---------------------------------------------------------------------------
# Keys: one hash per request
# ---------------------------------------------------------------------------


class TestKeyMemo:
    def test_run_dir_sweep_serializes_each_request_at_most_once(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli.main import main

        calls: Counter = Counter()
        original = ExecutionRequest.to_dict

        def counting(self):
            calls[self] += 1
            return original(self)

        monkeypatch.setattr(ExecutionRequest, "to_dict", counting)
        argv = ["sweep", "random-rs", "--count", "40", "--seed", "3", "--check",
                "--engine", "vector", "--run-dir", str(tmp_path / "runs")]
        assert main(argv) == 0
        assert "executed 40, cached 0" in capsys.readouterr().out
        # Keys are built from per-field fragments: nothing on the path
        # serializes a whole request.
        assert not calls

    def test_a_run_dir_leg_asks_each_cell_for_its_key_once(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli.main import main

        calls = Counter()
        original = ExecutionRequest.cache_key

        def counting(self):
            calls["keys"] += 1
            return original(self)

        monkeypatch.setattr(ExecutionRequest, "cache_key", counting)
        argv = ["sweep", "random-rs", "--count", "300", "--seed", "7",
                "--check", "--engine", "vector",
                "--run-dir", str(tmp_path / "runs")]
        asked = []
        for _ in ("cold", "warm"):
            calls.clear()
            assert main(argv) == 0
            asked.append(calls["keys"])
        assert "executed 0, cached 300" in capsys.readouterr().out
        # The leg hashes every planned cell for its run id; the store,
        # the audit log, the twins and the summary reuse those keys, and
        # the engine's result asks once per run (92 runs cold).
        assert asked == [300 + 92, 300]

    def test_memo_follows_the_active_injection(self, monkeypatch):
        request = space_by_name("random-rs", count=1, seed=1).requests[0]
        clean = request.cache_key()
        monkeypatch.setenv(INJECT_ENV, "ss-drop-received")
        injected = request.cache_key()
        assert injected != clean
        assert replace(request).cache_key() == injected
        monkeypatch.delenv(INJECT_ENV)
        assert request.cache_key() == clean

    def test_batch_keys_seed_the_memo_and_replace_drops_it(self):
        requests = list(space_by_name("random-rs", count=5, seed=2).requests)
        keys = [request.cache_key() for request in requests]
        assert all("_key_memo" in vars(request) for request in requests)
        assert keys == [reference_cache_key(request) for request in requests]
        # A work key is built on demand and leaves no memo behind.
        memos = [dict(vars(request)) for request in requests]
        assert {request.work_key() for request in requests}
        assert memos == [vars(request) for request in requests]
        copy = replace(requests[0], engine="vector")
        assert "_key_memo" not in vars(copy)
        assert copy.cache_key() != keys[0]
        assert copy == replace(requests[0], engine="vector")


# ---------------------------------------------------------------------------
# The packed store under hostile conditions
# ---------------------------------------------------------------------------


def _merged_digest(sweep):
    return hashlib.sha256(
        "".join(f"{line}\n" for line in sweep.merged_jsonl_lines()).encode()
    ).hexdigest()


def _shards(directory):
    return sorted(directory.glob("shard-*.jsonl"))


class TestPackedStore:
    def _populated(self, tmp_path, count=5, engine="vector"):
        """A run dir holding one shard; returns (run, space, shard bytes,
        reference trace)."""
        space = _space("random-rs", engine, count=count, seed=11)
        run = RunDir.open(
            tmp_path / "runs", kind="sweep", name=space.name,
            identity=sorted(r.cache_key() for r in space.requests),
        )
        sweep = SweepRunner(cache=ResultCache(run.results_dir)).run(space)
        (shard,) = _shards(run.results_dir)
        return run, space, shard.read_bytes(), list(sweep.merged_jsonl_lines())

    def _resume(self, run, space, data):
        """One resumed leg over a store holding exactly ``data``."""
        for shard in _shards(run.results_dir):
            shard.unlink()
        (run.results_dir / "shard-0000000000000000-1-damaged.jsonl").write_bytes(data)
        cache = ResultCache(run.results_dir)
        before = cache.completed_keys()
        sweep = SweepRunner(cache=cache).run(space)
        summary = summarize_sweep(run, sweep, completed_before=before)
        assert summary_problems(summary) == []
        return sweep, summary

    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    def test_cells_cite_their_template_and_stay_small(self, tmp_path, engine):
        run, space, data, _ = self._populated(tmp_path, count=40, engine=engine)
        records = [json.loads(line) for line in data.splitlines()]
        templates = [r for r in records if "key" not in r]
        cells = [r for r in records if "key" in r]
        assert len(cells) == 40 and 0 < len(templates) < 40
        assert all("events" not in cell and "metrics" not in cell for cell in cells)
        digests = [template["template"] for template in templates]
        assert len(set(digests)) == len(digests)
        seen = set()
        for record in records:  # a template precedes every cell that cites it
            if "key" in record:
                assert record["template"] in seen
            else:
                seen.add(record["template"])
        # Without ``extra``: its profile telemetry is a span snapshot per
        # executed run.
        sizes = sorted(
            len(json.dumps({key: value for key, value in cell.items() if key != "extra"}))
            for cell in cells
        )
        assert sizes[-1] < 400  # the run-wide mean is the ledger's

    def test_a_cell_without_a_template_is_a_corrupt_miss(self, tmp_path):
        """No writer stores a cell without its template digest: such a
        line is a corrupt entry, served as a miss, re-executed and
        counted in ``corrupt_evictions``; the re-executed cells win."""
        run, space, data, reference = self._populated(tmp_path)
        lines = []
        for line in data.splitlines(keepends=True):
            if line.startswith(b'{"key": '):
                record = json.loads(line)
                del record["template"]
                line = (json.dumps(record) + "\n").encode("ascii")
            lines.append(line)
        for shard in _shards(run.results_dir):
            shard.unlink()
        (run.results_dir / "shard-0000000000000000-1-untemplated.jsonl").write_bytes(
            b"".join(lines)
        )
        cache = ResultCache(run.results_dir)
        served = SweepRunner(cache=cache).run(space)
        assert served.executed == len(space.requests)
        assert cache.stats.corrupt_evictions == len(space.requests)
        assert list(served.merged_jsonl_lines()) == reference
        cache.close()
        warm = SweepRunner(cache=ResultCache(run.results_dir)).run(space)
        assert warm.executed == 0
        assert list(warm.merged_jsonl_lines()) == reference

    def test_both_engines_store_the_same_templates(self, tmp_path):
        digests = {}
        for engine in ("rounds", "vector"):
            store = tmp_path / engine
            with closing(ResultCache(store)) as cache:
                SweepRunner(cache=cache).run(
                    _space("random-rs", engine, count=300, seed=7)
                )
            digests[engine] = {
                json.loads(line)["template"]
                for shard in _shards(store)
                for line in shard.read_bytes().splitlines()
                if line.startswith(b'{"template": ')
            }
        assert digests["rounds"] == digests["vector"]
        assert len(digests["rounds"]) > 1

    def test_truncation_inside_the_last_cell_record(self, tmp_path):
        run, space, data, reference = self._populated(tmp_path)
        last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
        assert data[last_start:].startswith(b'{"key": ')
        for cut in range(last_start, len(data)):
            sweep, summary = self._resume(run, space, data[:cut])
            torn = int(cut > last_start)  # cut == start removes it whole
            assert summary["cache"]["corrupt_evictions"] == torn, cut
            assert summary["resume"] == {
                "completed_before": len(space.requests) - 1,
                "executed": 1,
                "cached": len(space.requests) - 1,
                "re_executed": 0,
            }, cut
            assert list(sweep.merged_jsonl_lines()) == reference

    def test_truncation_inside_a_template_record(self, tmp_path):
        run, space, data, reference = self._populated(tmp_path, count=12)
        lines = data.splitlines(keepends=True)
        victim = max(
            index for index, line in enumerate(lines)
            if line.startswith(b'{"template": ')
        )
        assert victim > 0, "need intact cells ahead of the torn template"
        start = sum(len(line) for line in lines[:victim])
        intact = sum(line.startswith(b'{"key": ') for line in lines[:victim])
        for cut in range(start + 1, start + len(lines[victim]), 37):
            sweep, summary = self._resume(run, space, data[:cut])
            assert summary["cache"]["corrupt_evictions"] == 1
            assert summary["resume"]["completed_before"] == intact
            assert summary["resume"]["cached"] == intact
            assert summary["resume"]["executed"] == len(space.requests) - intact
            assert summary["resume"]["re_executed"] == 0
            assert list(sweep.merged_jsonl_lines()) == reference

    def test_a_run_append_cut_at_every_byte(self, tmp_path):
        """A leg killed inside its last run's one append (the run's
        template record, new to the shard, then its four cell lines), at
        every byte offset: the resumed leg serves the intact cells,
        executes only the torn ones and writes the uninterrupted leg's
        merged trace."""

        def request(name, t):  # t = 0: one round, a short template
            return ExecutionRequest(
                name=name, engine="rounds", algorithm="floodset",
                values=(0, 1), t=t, model="RS", scenario=failure_free(2),
                max_rounds=4,
            )

        last = request("cut-t0", 0)
        space = ScenarioSpace.explicit("cut", [
            request("cut-t1", 1),
            last,
            *(last.renamed(f"cut-t0-twin-{index}") for index in (1, 2, 3)),
        ])
        run = RunDir.open(
            tmp_path / "runs", kind="sweep", name=space.name,
            identity=sorted(r.cache_key() for r in space.requests),
        )
        cold = SweepRunner(cache=ResultCache(run.results_dir)).run(space)
        assert cold.distinct == 2
        reference = _merged_digest(cold)
        (shard,) = _shards(run.results_dir)
        data = shard.read_bytes()
        append = data.splitlines(keepends=True)[-5:]
        assert append[0].startswith(b'{"template": ')
        assert all(line.startswith(b'{"key": ') for line in append[1:])
        # Where each line of the append ends; the first is where it starts.
        ends = list(itertools.accumulate(
            map(len, append), initial=len(data) - len(b"".join(append))
        ))
        for cut in range(ends[0], len(data)):
            sweep, summary = self._resume(run, space, data[:cut])
            whole = sum(end <= cut for end in ends[1:])
            intact = 1 + max(whole - 1, 0)  # the first run's cell + whole lines
            assert summary["cache"]["corrupt_evictions"] == (cut not in ends), cut
            assert summary["resume"] == {
                "completed_before": intact,
                "executed": len(space.requests) - intact,
                "cached": intact,
                "re_executed": 0,
            }, cut
            assert _merged_digest(sweep) == reference, cut

    def test_cell_citing_a_missing_template_is_a_miss(self, tmp_path):
        run, space, data, reference = self._populated(tmp_path)
        cells_only = b"".join(
            line for line in data.splitlines(keepends=True)
            if line.startswith(b'{"key": ')
        )
        sweep, summary = self._resume(run, space, cells_only)
        assert sweep.executed == len(space.requests)
        assert summary["cache"]["corrupt_evictions"] == len(space.requests)
        assert list(sweep.merged_jsonl_lines()) == reference
        # The re-executed cells now sit in a newer shard, with templates.
        again = SweepRunner(cache=ResultCache(run.results_dir)).run(space)
        assert again.executed == 0
        assert list(again.merged_jsonl_lines()) == reference

    def test_junk_lines_are_counted_and_skipped(self, tmp_path):
        run, space, data, reference = self._populated(tmp_path)
        junk = b'not json\n{"foreign": true}\n\n[1, 2]\n'
        sweep, summary = self._resume(run, space, junk + data)
        assert sweep.executed == 0
        assert summary["cache"]["corrupt_evictions"] == 3  # blank lines are fine
        assert list(sweep.merged_jsonl_lines()) == reference

    def test_schema_2_directory_reads_as_empty(self, tmp_path):
        space = _space("random-rs", count=3, seed=11)
        results = run_space(space).results
        for request, result in zip(space.requests, results):
            (tmp_path / f"{request.cache_key()}.json").write_text(
                json.dumps(
                    {"name": result.name, **result.outcome_dict()},
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
        cache = ResultCache(tmp_path)
        assert len(cache) == 0 and cache.completed_keys() == set()
        assert all(
            cache.get(request.cache_key()) is None for request in space.requests
        )
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 3, "stores": 0, "corrupt_evictions": 0,
        }
        assert list(cache.results()) == []

    def test_a_leg_that_stores_nothing_writes_nothing(self, tmp_path):
        run, space, _, _ = self._populated(tmp_path)
        before = {path: path.stat().st_size for path in _shards(run.results_dir)}
        warm = SweepRunner(cache=ResultCache(run.results_dir)).run(space)
        assert warm.executed == 0
        assert {path: path.stat().st_size for path in _shards(run.results_dir)} == before

    def test_results_lists_the_store_in_key_order(self, tmp_path):
        run, space, _, _ = self._populated(tmp_path)
        store = ResultCache(run.results_dir)
        listed = list(store.results())
        assert [r.request_key for r in listed] == sorted(store.completed_keys())
        assert run.completed_keys() == store.completed_keys() == set(
            r.cache_key() for r in space.requests
        )
        assert {r.name for r in listed} == {r.name for r in space.requests}


# ---------------------------------------------------------------------------
# Store and audit lines: spliced per cell vs one json.dumps per record
# ---------------------------------------------------------------------------


def _recording_references(monkeypatch):
    """Spy on the two per-run writers: every call appends the lines the
    reference encoder builds from its arguments, taken before the
    writer runs, to ``store`` or ``audit``."""
    references = {"store": [], "audit": [], "templates": set()}
    put, record_cell = ResultCache.put, RunDir.record_cell

    def spied_put(self, results):
        references["store"].extend(
            store_cell_line(result.request_key, result) for result in results
        )
        references["templates"].add(store_template_line(results[0].template))
        return put(self, results)

    def spied_record_cell(self, cells, **fields):
        references["audit"].extend(
            audit_line(
                leg=self.manifest.get("legs", 1), name=name, key=key, **fields
            )
            for name, key in cells
        )
        return record_cell(self, cells, **fields)

    monkeypatch.setattr(ResultCache, "put", spied_put)
    monkeypatch.setattr(RunDir, "record_cell", spied_record_cell)
    return references


def _written(root):
    """The run directory's shard cell lines, in write order, its
    template lines and its audit log."""
    (run,) = root.iterdir()
    lines = [
        line
        for shard in _shards(run / "results")
        for line in shard.read_bytes().splitlines(keepends=True)
    ]
    cells = [line for line in lines if line.startswith(b'{"key": ')]
    templates = [line for line in lines if line.startswith(b'{"template": ')]
    audit = (run / "metrics.jsonl").read_text(encoding="utf-8")
    return cells, templates, audit


def _assert_legs_match_the_reference(space, root, monkeypatch):
    references = _recording_references(monkeypatch)
    for leg in ("cold", "warm"):
        campaign = CampaignLeg(
            str(root), kind="sweep", name=space.name,
            requests=space.requests, config={},
        )
        with campaign:
            sweep = SweepRunner(
                cache=campaign.cache, check=True, on_run=campaign.on_run
            ).run(space, keys=campaign.keys)
            campaign.finalize(lambda run_dir: {"coverage": {}})
        assert sweep.executed == (len(space.requests) if leg == "cold" else 0)
        cells, templates, audit = _written(root)
        assert cells == references["store"], leg
        # One record per digest and shard; a cold leg writes one shard.
        assert len(set(templates)) == len(templates), leg
        assert set(templates) == references["templates"], leg
        assert audit == "".join(references["audit"]), leg
    assert len(references["audit"]) == 2 * len(references["store"])
    # Every cell is stored under its own request's key.
    assert sorted(json.loads(line)["key"] for line in cells) == sorted(
        reference_cache_key(request) for request in space.requests
    )
    return references


class TestPerCellRecords:
    @pytest.mark.parametrize("engine", ("rounds", "vector"))
    @pytest.mark.parametrize("name", ROUND_SPACES)
    def test_store_and_audit_lines_equal_the_reference(
        self, name, engine, tmp_path, monkeypatch
    ):
        space = _space(name, engine)
        _assert_legs_match_the_reference(space, tmp_path / "runs", monkeypatch)

    def test_the_hostile_space(self, tmp_path, monkeypatch):
        references = _assert_legs_match_the_reference(
            _hostile_space(), tmp_path / "runs", monkeypatch
        )
        text = b"".join(references["store"]).decode("ascii")
        for escaped in ('%d%%s-\\"quoted\\"', "\\u00e9-\\u2028"):
            assert escaped in text

    def test_a_run_is_one_put_one_write_and_one_audit_append(
        self, tmp_path, monkeypatch
    ):
        space = _space("random-rs", count=300, seed=7)
        calls: Counter = Counter()
        put, writer, append = ResultCache.put, ResultCache._writer, RunDir._append

        class CountingShard:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                calls["shard write"] += 1
                return self.handle.write(data)

            def flush(self):
                calls["shard flush"] += 1
                return self.handle.flush()

        def counted_put(self, results):
            calls["put"] += 1
            return put(self, results)

        def counted_append(self, lines):
            calls["audit append"] += 1
            return append(self, lines)

        monkeypatch.setattr(ResultCache, "put", counted_put)
        monkeypatch.setattr(
            ResultCache, "_writer", lambda self: CountingShard(writer(self))
        )
        monkeypatch.setattr(RunDir, "_append", counted_append)
        legs = []
        for _ in ("cold", "warm"):
            calls.clear()
            campaign = CampaignLeg(
                str(tmp_path / "runs"), kind="sweep", name=space.name,
                requests=space.requests, config={},
            )
            with campaign:
                sweep = SweepRunner(
                    cache=campaign.cache, on_run=campaign.on_run
                ).run(space, keys=campaign.keys)
                campaign.finalize(lambda run_dir: {"coverage": {}})
            legs.append((sweep, dict(calls)))
        (cold, cold_calls), (warm, warm_calls) = legs
        runs = cold.distinct
        assert runs < len(space.requests)
        assert cold_calls == dict.fromkeys(
            ("put", "shard write", "shard flush", "audit append"), runs
        )
        # A warm leg stores nothing and audits each hit as a run of one.
        assert (warm.executed, warm_calls) == (0, {"audit append": 300})

    def test_equal_twins_share_a_tail_and_nothing_else_does(self, tmp_path):
        space = _space("random-rs", count=3, seed=11)
        result = run_space(space).results[0]
        duration = result.extra["profile"]["duration_s"]
        cache = ResultCache(tmp_path)
        expected = []

        def twin(name, **changes):
            changes.setdefault(
                "extra", {"profile": {"duration_s": duration, "spans": {}}}
            )
            key = hashlib.sha256(name.encode("utf-8")).hexdigest()
            return replace(result, name=name, request_key=key, **changes)

        def put(*twins):
            cells = [result, *twins]
            expected.extend(store_cell_line(c.request_key, c) for c in cells)
            cache.put(cells)

        put(twin("twin-%s\u2028"), twin("twin-2"), twin("twin-3"))
        # Equal in Python, printed differently: each needs its own tail.
        assert type(result.latency) is int and result.decisions
        put(*(twin(f"l-{latency!r}", latency=latency)
              for latency in (float(result.latency), result.latency, True)))
        put(twin("bool-decisions", decisions={
            pid: (at, bool(value))
            for pid, (at, value) in result.decisions.items()
        }))
        for pair in (
            ({"duration_s": -0.0}, {"duration_s": 0.0}),
            ({"flag": 1}, {"flag": True}),
            ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
        ):
            assert pair[0] == pair[1]
            put(*(twin(f"e-{extra!r}", extra=extra) for extra in pair))
        result.extra["mutated"] = -0.0  # in place, after its put
        put()
        result.extra["mutated"] = 0.0
        put(twin("mutated-again"))
        other = run_space(space).results[0]  # another run's template object
        with pytest.raises(ValueError, match="one template"):
            cache.put([result, other])
        cache.close()
        (shard,) = _shards(tmp_path)
        lines = [
            line for line in shard.read_bytes().splitlines(keepends=True)
            if line.startswith(b'{"key": ')
        ]
        assert lines == expected
        # The template was written once, ahead of its first cell.
        assert shard.read_bytes().count(b'{"template": ') == 1

    def test_audit_splices_only_between_equal_records(self, tmp_path):
        run = RunDir.open(tmp_path, kind="sweep", name="audit", identity=["x"])
        calls = [
            ([("a", "k1")], dict(cached=False, latency=0, duration_s=0.0)),
            ([('b-%s-"q"', "k2"), ("c-\u2028-\u00e9", "k3")],
             dict(cached=False, latency=False, duration_s=0.0)),
            ([("d", "k4")], dict(cached=False, latency=False, duration_s=-0.0)),
            ([("e", "k5"), ("f", "k6"), ("g", "k7")],
             dict(cached=0, latency=False, duration_s=-0.0, engine="rounds")),
            ([("h", "k8")], dict(cached=0, latency=False, duration_s=-0.0,
                                 engine="rounds")),
        ]
        for cells, fields in calls:
            run.record_cell(cells, **fields)
        run.mark_interrupted()
        assert (run.path / "metrics.jsonl").read_text(encoding="utf-8") == "".join(
            audit_line(leg=1, name=name, key=key, **fields)
            for cells, fields in calls
            for name, key in cells
        )


# ---------------------------------------------------------------------------
# The audit log: one handle per leg, flushed per record
# ---------------------------------------------------------------------------


class TestMetricsHandle:
    def test_one_open_per_leg_and_every_record_is_on_disk(
        self, tmp_path, monkeypatch
    ):
        opened = []
        real_open = open

        def counting_open(path, mode="r", **kwargs):
            if mode.startswith("a"):
                opened.append(str(path))
            return real_open(path, mode, **kwargs)

        run = RunDir.open(tmp_path, kind="sweep", name="audit", identity=["x"])
        monkeypatch.setattr(artifacts, "open", counting_open, raising=False)
        for index in range(5):
            run.record_cell([(f"cell-{index}", f"k{index}")], cached=False)
            # A leg killed right here must have left the record behind.
            assert len(RunDir.load(run.path).metrics_records()) == index + 1
        assert opened == [str(run.path / "metrics.jsonl")]
        run.finalize({"coverage": {}})
        assert run._metrics is None
        run.record_cell([("late", "late")], cached=False)  # reopens
        run.mark_interrupted()
        assert run._metrics is None
        assert len(run.metrics_records()) == 6

    def test_a_torn_last_record_is_not_glued_to_the_next_legs_first(
        self, tmp_path
    ):
        space = _space("random-rs", "rounds", count=20, seed=7)

        def leg(root):
            campaign = CampaignLeg(
                str(root), kind="sweep", name=space.name,
                requests=space.requests, config={},
            )
            with campaign:
                SweepRunner(
                    cache=campaign.cache, on_run=campaign.on_run
                ).run(space, keys=campaign.keys)
                campaign.finalize(lambda run_dir: {"coverage": {}})
            return campaign.path / "metrics.jsonl"

        audit = leg(tmp_path / "first").read_bytes()
        lines = audit.splitlines(keepends=True)
        assert len(lines) == 20
        start = len(b"".join(lines[:14]))
        # Killed inside line 15: one byte in, mid-record, and short of
        # nothing but its newline (a fragment that parses on its own).
        for cut in (start + 1, start + len(lines[14]) // 2,
                    start + len(lines[14]) - 1):
            root = tmp_path / f"cut-{cut}"
            shutil.copytree(tmp_path / "first", root)
            path = next(root.iterdir()) / "metrics.jsonl"
            path.write_bytes(audit[:cut])
            leg(root)
            records = RunDir.load(path.parent).metrics_records()
            resumed = [record for record in records if record["leg"] == 2]
            assert [record["cell"] for record in resumed] == [
                request.name for request in space.requests
            ], cut
            assert all(record["cached"] for record in resumed)
            text = path.read_bytes()
            assert text.startswith(audit[:cut] + b"\n"), cut
            assert text.endswith(b"\n") and text.count(b"\n") == 14 + 1 + 20
