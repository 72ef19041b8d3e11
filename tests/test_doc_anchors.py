"""Every code anchor the documents name resolves.

README.md, DESIGN.md and ``docs/*.md`` point into the code in two
ways, each written in backticks: a dotted path (``repro.obs.diff`` or
``repro.obs.diff.local_view``), which must import with each attribute
after the module present, and a file path under ``tests/``,
``examples/`` or ``scripts/`` (``tests/test_sdd.py``, optionally with a
``::test`` suffix), which must exist.  A module deleted while a row
still names it fails here.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")
FILE = re.compile(r"`((?:tests|examples|scripts)/[\w./-]*?\.py)\b")


def _resolves(dotted: str) -> bool:
    """Whether the longest importable prefix of ``dotted`` has the rest
    as a chain of attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    for name in parts[cut:]:
        if not hasattr(target, name):
            return False
        target = getattr(target, name)
    return True


def test_every_named_module_attribute_and_file_exists():
    misses = []
    anchors = 0
    for doc in DOCS:
        lines = doc.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            where = f"{doc.relative_to(ROOT)}:{number}"
            for match in DOTTED.finditer(line):
                anchors += 1
                if not _resolves(match.group(1)):
                    misses.append(f"{where}: {match.group(1)}")
            for match in FILE.finditer(line):
                anchors += 1
                if not (ROOT / match.group(1)).is_file():
                    misses.append(f"{where}: {match.group(1)}")
    assert anchors > 100  # the patterns still find the documents' anchors
    assert misses == []
