"""``python ledger/reference.py SEED CELLS``: the reference trace digest.

Prints the sha256 of the merged ``random-rs`` sweep trace computed by
the second route.  The measured campaigns go CLI -> vector engine ->
result cache -> file; this goes Python API -> rounds engine -> memory,
so a digest match is two independent routes to the same bytes.

A process of its own because it holds every event of the sweep: Linux
carries a spawner's peak RSS across ``exec`` into the child's
``ru_maxrss``, so the harness that spawns the measured commands must
stay smaller than the smallest of them.
"""

from __future__ import annotations

import hashlib
import sys


def main(argv: list[str]) -> int:
    from repro.runtime import SweepRunner, space_by_name

    seed, cells = int(argv[0]), int(argv[1])
    space = space_by_name("random-rs", count=cells, seed=seed)
    digest = hashlib.sha256()
    for line in SweepRunner(jobs=1).run(space).merged_jsonl_lines():
        digest.update(line.encode("utf-8") + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
