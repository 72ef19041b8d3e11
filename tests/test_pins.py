"""Every pinned byte, regenerated: ``tests/pins.json`` against the commands.

``scripts/pins.py`` runs each pinned command in process and hashes its
artefact; this test holds the checked-in file to that.  A change that
moves a pin on purpose rewrites the file (``scripts/pins.py --write``),
so the moved entry shows in its diff.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_{name}_script", ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pin_regenerates_to_its_pinned_value():
    pins = _script("pins")
    pinned = json.loads(pins.PINS.read_text(encoding="utf-8"))
    fresh = pins.regenerate()
    assert pins.moved(pinned, fresh) == []
    assert fresh == pinned


def test_the_pinned_mc_verdicts_are_the_ones_the_line_audit_runs():
    pinned = _script("pins").MC_VERDICTS
    audited = [
        verdict.split(" --out")[0]
        for verdict in _script("line_audit").MC_VERDICTS
    ]
    assert pinned[: len(audited)] == audited
