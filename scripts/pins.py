#!/usr/bin/env python
"""Every byte the repository promises to keep, regenerated from the commands.

Usage::

    PYTHONPATH=src python scripts/pins.py          # compare: tests/pins.json
    PYTHONPATH=src python scripts/pins.py --write  # rewrite tests/pins.json

Each entry of ``tests/pins.json`` names a pinned surface: the ``repro``
command that makes it (``{tmp}`` is a scratch directory), the artefact
read from that run, the artefact's sha256 (or, for a run id or a
version, the value itself) and the paper claim or contract it protects.
:func:`regenerate` runs every command in process, through
``repro.cli.main.main``; ``tests/test_pins.py`` holds the file to it.
The named-cell outputs and EXPERIMENTS.md keep their pins where they
are (the file's ``elsewhere`` list points to them).

Exits 0 when every entry regenerates to its pinned value, 1 naming each
entry that moved (or is new, or gone), 2 on usage errors.  A change
that moves a pin on purpose rewrites the file with ``--write`` and
names the entry in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "pins.json"

#: The ``repro mc`` verdicts docs/paper_map.md quotes, as
#: ``scripts/line_audit.MC_VERDICTS`` runs them (without its ``--out``),
#: and the RWS run whose witness tests/test_startup.py also pins.
MC_VERDICTS = [
    "agreement --algorithm floodset",
    "agreement --algorithm a1",
    "agreement --algorithm floodset --model RWS",
    "agreement --algorithm floodset --n 4 --t 2",
    "uniform-agreement --algorithm eager-floodset-ws --model RWS",
    "validity --algorithm floodset",
    "termination --algorithm floodset",
    "lambda --algorithm a1",
    "lambda --algorithm floodset",
    "indistinguishability --algorithm a1 --n 3 --t 1",
    "indistinguishability --algorithm floodset-ws --model RWS",
    "indistinguishability --fixture suspicion",
    "uniform-agreement --algorithm floodset --n 3 --t 1 --model RWS",
]

#: The ``repro mc`` runs whose ``--save-frontier`` file is pinned.
FRONTIERS = [
    "agreement --algorithm floodset --n 4 --t 2",
    "agreement --algorithm floodset --n 3 --t 1",
]

#: Pins kept beside the tests that check them.
ELSEWHERE = [
    "tests/test_named_cells.py: show / trace / metrics / check / replay "
    "output of the named cells, and the E15 headline rows",
    "EXPERIMENTS.md: `make report-check` (E1-E15)",
]

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lines_digest(lines: list[bytes]) -> str:
    """sha256 of the lines in sorted order: what a set of records is,
    whatever order the writers appended them in."""
    return sha256(b"".join(sorted(lines)))


def run(argv: str, tmp: Path) -> tuple[int, str]:
    """``repro ARGV`` in process: its exit code and its stdout, with
    ``{tmp}`` standing for the scratch directory again."""
    from repro.cli.main import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv.format(tmp=tmp).split())
    return code, stdout.getvalue().replace(str(tmp), "{tmp}")


def only_run(root: Path) -> Path:
    (path,) = [path for path in root.iterdir() if path.is_dir()]
    return path


def store_lines(run_dir: Path, kind: bytes) -> list[bytes]:
    """The result store's lines whose first key is ``kind``."""
    prefix = b'{"' + kind + b'": '
    return [
        line
        for shard in sorted((run_dir / "results").glob("shard-*.jsonl"))
        for line in shard.read_bytes().splitlines(keepends=True)
        if line.startswith(prefix)
    ]


def _random_rs(tmp: Path) -> list[dict]:
    argv = "sweep random-rs --count 2000 --seed 7 --jsonl {tmp}/rs.jsonl"
    vector = (
        "sweep random-rs --count 2000 --seed 7 --engine vector --check "
        "--run-dir {tmp}/rs-runs"
    )
    codes = (run(argv, tmp)[0], run(vector, tmp)[0])
    return [
        {
            "name": "random-rs merged trace",
            "argv": argv,
            "artifact": "{tmp}/rs.jsonl",
            "exit": codes[0],
            "sha256": sha256((tmp / "rs.jsonl").read_bytes()),
            "protects": "the RS random-adversary stream's traces, byte for "
            "byte, whatever the engine and the cache do (§4 round model)",
        },
        {
            "name": "random-rs vector run id",
            "argv": vector,
            "artifact": "the run directory's name",
            "exit": codes[1],
            "value": only_run(tmp / "rs-runs").name,
            "protects": "every cell's cache key (the run id hashes them all)",
        },
    ]


def _random_rws(tmp: Path) -> list[dict]:
    argv = (
        "sweep random-rws --count 2000 --seed 7 --check "
        "--run-dir {tmp}/rws-runs --jsonl {tmp}/rws.jsonl"
    )
    code, _ = run(argv, tmp)
    run_dir = only_run(tmp / "rws-runs")
    templates = store_lines(run_dir, b"template")
    digests = sorted(json.loads(line)["template"] for line in templates)
    common = {"argv": argv, "exit": code}
    return [
        {
            "name": "random-rws merged trace",
            **common,
            "artifact": "{tmp}/rws.jsonl",
            "sha256": sha256((tmp / "rws.jsonl").read_bytes()),
            "protects": "the RWS stream's traces, pending messages "
            "included (§5.3: weak round synchrony)",
        },
        {
            "name": "random-rws run id",
            **common,
            "artifact": "the run directory's name",
            "value": run_dir.name,
            "protects": "every RWS cell's cache key",
        },
        {
            "name": "random-rws template digests",
            **common,
            "artifact": "the sorted digests of the store's template "
            "records, one per line",
            "count": len(digests),
            "sha256": sha256("\n".join(digests).encode("ascii")),
            "protects": "the content hash every stored cell cites",
        },
        {
            "name": "random-rws store template lines",
            **common,
            "artifact": 'the store\'s {"template": ...} lines, sorted',
            "sha256": lines_digest(templates),
            "protects": "the result store's template encoding, byte for "
            "byte: a store written before stays readable and equal",
        },
    ]


def _oracle_sweep(tmp: Path) -> list[dict]:
    from repro.runtime import space_by_name

    keys = [request.cache_key() for request in space_by_name("oracle-sweep")]
    return [
        {
            "name": "oracle-sweep keys",
            "argv": "sweep oracle-sweep",
            "artifact": "its cells' cache keys, newline-joined in space order",
            "sha256": sha256("\n".join(keys).encode("ascii")),
            "protects": "the named runs' and the chaos sweep's identity",
        }
    ]


def _schema(tmp: Path) -> list[dict]:
    from repro.runtime.request import CACHE_SCHEMA_VERSION

    return [
        {
            "name": "CACHE_SCHEMA_VERSION",
            "argv": None,
            "artifact": "repro.runtime.request.CACHE_SCHEMA_VERSION",
            "value": CACHE_SCHEMA_VERSION,
            "protects": "every stored result's key space",
        }
    ]


def _mc(tmp: Path) -> list[dict]:
    # verdict.json and the witnesses hold no field that measures the
    # host (no wall, no timestamp), so their bytes are the pin.
    entries = []
    for index, verdict in enumerate(MC_VERDICTS):
        out = tmp / f"mc-{index:02d}"
        argv = f"mc {verdict} --out {{tmp}}/mc-{index:02d}"
        code, stdout = run(argv, tmp)
        # A fixture check writes no verdict file: its stdout is the verdict.
        files = sorted(out.iterdir()) if out.exists() else []
        entries.append({
            "name": f"mc {verdict}",
            "argv": argv,
            "artifact": "stdout, and verdict.json and every witness file "
            "in --out",
            "exit": code,
            "stdout": sha256(stdout.encode("utf-8")),
            "files": {path.name: sha256(path.read_bytes()) for path in files},
            "protects": "the model checker's verdict and witnesses "
            "(docs/paper_map.md)",
        })
    return entries


def _frontiers(tmp: Path) -> list[dict]:
    entries = []
    for index, task in enumerate(FRONTIERS):
        argv = f"mc {task} --save-frontier {{tmp}}/frontier-{index}.json"
        code, _ = run(argv, tmp)
        entries.append({
            "name": f"mc {task} frontier",
            "argv": argv,
            "artifact": f"{{tmp}}/frontier-{index}.json",
            "exit": code,
            "sha256": sha256((tmp / f"frontier-{index}.json").read_bytes()),
            "protects": "the explored schedule frontier, state for state",
        })
    return entries


SURFACES: list[Callable[[Path], list[dict]]] = [
    _random_rs, _random_rws, _oracle_sweep, _schema, _mc, _frontiers,
]


def regenerate() -> dict:
    """Every pin, regenerated in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="pins-") as tmp:
        entries = [
            entry for surface in SURFACES for entry in surface(Path(tmp))
        ]
    return {"elsewhere": ELSEWHERE, "pins": entries}


def moved(pinned: dict, fresh: dict) -> list[str]:
    """The names of the entries that differ between two pin documents."""
    old = {entry["name"]: entry for entry in pinned.get("pins", [])}
    new = {entry["name"]: entry for entry in fresh["pins"]}
    return sorted(
        name
        for name in old.keys() | new.keys()
        if old.get(name) != new.get(name)
    )


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    fresh = regenerate()
    if argv == ["--write"]:
        PINS.write_text(json.dumps(fresh, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(fresh['pins'])} pins to {os.path.relpath(PINS)}")
        return 0
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    changed = moved(pinned, fresh)
    for name in changed:
        print(f"moved: {name}")
    if not changed:
        print(f"OK: {len(fresh['pins'])} pins")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
