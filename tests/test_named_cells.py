"""The paper's named runs are written once and run through the runtime.

``repro show | trace | metrics | check | replay NAME`` resolve the name
in :data:`repro.runtime.space.NAMED_CELLS` and execute the cell through
:mod:`repro.runtime.harness`.  Everything those commands print for the
three historical names and the two long aliases was captured at the
commit *before* the CLI was rebuilt on the runtime (when it still drove
``run_rs``/``run_rws`` itself) and is pinned here by digest, together
with the ``oracle-sweep`` cell keys and the rows of E15's headline
table.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from repro.cli.main import main

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

NAMES = (
    "a1-rws",
    "floodset-rws",
    "fopt-fast",
    "floodset-rws-violation",
    "a1-rws-disagreement",
)


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _without_profile(text: str) -> str:
    """A metrics snapshot minus the wall-clock ``profile.*`` entries."""
    snapshot = json.loads(text)
    for section in snapshot.values():
        for key in [k for k in section if k.startswith("profile.")]:
            del section[key]
    return json.dumps(snapshot, sort_keys=True)


def capture(name: str, workdir: Path) -> dict[str, str]:
    """Every pinned surface of one named run, as short sha256 digests."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        surfaces = {
            "trace": _run("trace", name),
            "trace-jsonl": _run("trace", name, "--jsonl", "t.jsonl"),
            "show": _run("show", name),
            "check": _run("check", name),
            "replay": _run("replay", name, "t.jsonl"),
        }
        code, out, err = _run("metrics", name, "--json")
        surfaces["metrics-json"] = (code, _without_profile(out), err)
        surfaces["jsonl-file"] = (0, Path("t.jsonl").read_text(), "")
    finally:
        os.chdir(previous)
    return {
        surface: hashlib.sha256(
            json.dumps(output).encode("utf-8")
        ).hexdigest()[:16]
        for surface, output in surfaces.items()
    }


#: ``capture(name)`` at the parent commit (PR 18, 3bbf126).
PINS = {
    "a1-rws": {
        "trace": "69e632e8e3b1fafe",
        "trace-jsonl": "5abee860b0c5f7c1",
        "show": "34d647a1d6a9ad40",
        "check": "6d2083f34afe5b48",
        "replay": "2646666af5562b10",
        "metrics-json": "c1a6c6fe2c8cb59b",
        "jsonl-file": "352abc9f07fefeea",
    },
    "floodset-rws": {
        "trace": "fd8f24ad2eb84974",
        "trace-jsonl": "6c8852b18cf1ba61",
        "show": "f0b9ab47fd1b258c",
        "check": "041883d524ec30eb",
        "replay": "2f7a9c3763cc674e",
        "metrics-json": "826661b62da7a7ab",
        "jsonl-file": "e954b303f50388f4",
    },
    "fopt-fast": {
        "trace": "a6f2b1222ac21b56",
        "trace-jsonl": "ff2e0dd4212653a6",
        "show": "cb0a48d8d93ff66c",
        "check": "1d43725d0056ae73",
        "replay": "8c54b53d72007e9f",
        "metrics-json": "000c2794ec3e0204",
        "jsonl-file": "ef781cc5ad242b83",
    },
    "floodset-rws-violation": {
        "trace": "35319a66e0118583",
        "trace-jsonl": "570831ac3b3c342b",
        "show": "6755cded5b01f4b4",
        "check": "1b6723afac3f0342",
        "replay": "b243f37bac728953",
        "metrics-json": "826661b62da7a7ab",
        "jsonl-file": "e954b303f50388f4",
    },
    "a1-rws-disagreement": {
        "trace": "2e037a4fd804e3ed",
        "trace-jsonl": "e9565d4b5e4e48f3",
        "show": "a829eb760d615624",
        "check": "3887ca56c32f0994",
        "replay": "6a109e0636a7207f",
        "metrics-json": "c1a6c6fe2c8cb59b",
        "jsonl-file": "352abc9f07fefeea",
    },
}

#: sha256 over the newline-joined ``oracle-sweep`` cache keys at the
#: parent — what run id 0528f8299ac605b3 is derived from.
ORACLE_SWEEP_KEYS = (
    "b8b0a0f47fe2ce3743b1d24baefe52ebbc9eea9ce571b2da6230cd01807349c0"
)

#: ``latency_summary_table(n=3, t=1)`` over the seven algorithms at the
#: parent, when it still walked each run space twice.
SUMMARY_ROWS = [
    ("FloodSet", "RS", 3, 1, True, 2, 2, 2),
    ("FloodSet", "RWS", 3, 1, False, None, None, None),
    ("FloodSetWS", "RS", 3, 1, True, 2, 2, 2),
    ("FloodSetWS", "RWS", 3, 1, True, 2, 2, 2),
    ("C_OptFloodSet", "RS", 3, 1, True, 1, 2, 2),
    ("C_OptFloodSet", "RWS", 3, 1, False, None, None, None),
    ("C_OptFloodSetWS", "RS", 3, 1, True, 1, 2, 2),
    ("C_OptFloodSetWS", "RWS", 3, 1, True, 1, 2, 2),
    ("F_OptFloodSet", "RS", 3, 1, True, 1, 1, 2),
    ("F_OptFloodSet", "RWS", 3, 1, True, 1, 1, 2),
    ("F_OptFloodSetWS", "RS", 3, 1, True, 1, 1, 2),
    ("F_OptFloodSetWS", "RWS", 3, 1, True, 1, 1, 2),
    ("A1", "RS", 3, 1, True, 1, 1, 1),
    ("A1", "RWS", 3, 1, False, None, None, None),
]


class TestParentPins:
    @pytest.mark.parametrize("name", NAMES)
    def test_cli_output_is_byte_identical_to_the_parent(self, name, tmp_path):
        assert capture(name, tmp_path) == PINS[name]

    def test_oracle_sweep_cells_keep_their_keys_and_order(self):
        from repro.runtime.space import NAMED_CELLS, oracle_sweep_space

        space = oracle_sweep_space()
        keys = "\n".join(request.cache_key() for request in space.requests)
        assert hashlib.sha256(keys.encode()).hexdigest() == ORACLE_SWEEP_KEYS
        names = [request.name for request in space.requests]
        assert names[:8] == list(NAMED_CELLS)

    def test_summary_rows_match_the_two_pass_table(self):
        from repro.analysis import latency_summary_table
        from repro.runtime.registry import (
            UNIFORM_CONSENSUS_ALGORITHMS,
            make_algorithm,
        )

        rows = latency_summary_table(
            [make_algorithm(key) for key in UNIFORM_CONSENSUS_ALGORITHMS],
            n=3,
            t=1,
        )
        assert [dataclasses.astuple(row) for row in rows] == SUMMARY_ROWS


class TestNamedCellTable:
    def test_every_cell_and_alias_checks_clean(self):
        from repro.runtime.space import CELL_ALIASES, NAMED_CELLS

        for name in (*NAMED_CELLS, *CELL_ALIASES):
            assert _run("check", name)[0] == 0, name

    def test_aliases_name_registered_cells(self):
        from repro.runtime.space import CELL_ALIASES, NAMED_CELLS, named_cell

        assert set(CELL_ALIASES.values()) <= set(NAMED_CELLS)
        assert named_cell("fopt-fast") == NAMED_CELLS["initially-dead"]

    def test_cli_vocabulary_is_a_view_of_the_runtime_tables(self):
        from repro.cli.main import ALGORITHMS, SCENARIO_ALIASES, SCENARIOS
        from repro.runtime.registry import (
            ALGORITHM_FACTORIES,
            UNIFORM_CONSENSUS_ALGORITHMS,
        )
        from repro.runtime.space import CELL_ALIASES, NAMED_CELLS

        assert SCENARIOS is NAMED_CELLS
        assert SCENARIO_ALIASES is CELL_ALIASES
        assert tuple(ALGORITHMS) == UNIFORM_CONSENSUS_ALGORITHMS
        assert tuple(ALGORITHM_FACTORIES)[:7] == UNIFORM_CONSENSUS_ALGORITHMS

    def test_unknown_name_lists_cells_and_aliases(self):
        code, _, err = _run("show", "nope")
        assert code == 2
        assert "initially-dead" in err and "fopt-fast" in err
        assert len(err.splitlines()) == 1


def _sources(*parts: str) -> list[Path]:
    return sorted(SRC.joinpath(*parts).rglob("*.py"))


class TestStructureGuard:
    """One pipeline: the CLI runs no engine itself, and the named runs
    are built in one module."""

    def test_cli_calls_no_round_engine_directly(self):
        offenders = [
            path.name
            for path in _sources("cli")
            if re.search(r"\brun_rs\b|\brun_rws\b", path.read_text())
        ]
        assert offenders == []

    def test_named_runs_are_built_in_one_module(self):
        pattern = re.compile(r"\b(floodset_rws_violation|a1_rws_disagreement)\(")
        callers = {
            str(path.relative_to(SRC))
            for path in _sources()
            if "workloads" not in path.parts and pattern.search(path.read_text())
        }
        assert callers == {"runtime/space.py"}
