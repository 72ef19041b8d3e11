"""On-disk result store for sweep cells: packed, append-only shards.

Every writer instance appends to one ``shard-*.jsonl`` file of its own;
readers take the union of all shards in the directory.  Repeated
sweeps (CI re-runs, resumed run directories, iterating on an analysis)
skip every cell whose request hash is already stored — the second run
of an unchanged sweep executes zero scenarios.

A shard holds two kinds of JSON lines, told apart by their first key:

``{"key": K, "name": ..., "template": D, "holes": [...], "decisions": ..., "latency": ..., "num_rounds": ..., "extra": ...}``
    One cell.  ``K`` is the request's
    :meth:`~repro.runtime.request.ExecutionRequest.cache_key`.  Every
    result cites a :class:`~repro.obs.template.TraceTemplate`, so a
    cell stores only its digest ``D`` and the cell's decide values.
    An older writer's cell carrying ``"events"`` and ``"metrics"``
    inline instead is still read (factored, metrics refolded), never
    written.

``{"template": D, "events": [...], "positions": [...], "metrics": {...}}``
    One template, written to a shard once, before the first cell in it
    that cites ``D`` — so every shard can be read on its own.  Its
    ``metrics`` are part of the digested body; a reader folds them
    from the events again instead of reading them.

A writer flushes after every cell, so a killed campaign keeps every
completed cell.  Shard names sort by creation time and a later record
of a key wins, which is how a re-executed cell replaces a damaged one.

This module is the only one that knows the format.  Corrupt or
unreadable records — a line torn by a dying writer, foreign junk, a
cell citing a template that is nowhere in the directory — are served
as misses, never as errors: a cache must only ever make things faster.
Records are never rewritten, so each is also counted in
:attr:`CacheStats.corrupt_evictions` by every instance that reads past
it; a nonzero count on a healthy disk means a writer was killed
mid-``put`` or something else is scribbling over the directory, which
is why the counts flow into ``summary.json`` and the ``repro sweep``
output.  Entries of the per-cell ``<key>.json`` format this store
replaced are not read (:data:`~repro.runtime.request.CACHE_SCHEMA_VERSION`
3 keys would not match them anyway).
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.obs.template import TraceTemplate
from repro.runtime.request import ExecutionRequest, ExecutionResult

#: The leading bytes of a well-formed record: which kind, whose.  The
#: writer puts the identifying key first, so a scan can index a shard
#: without parsing the (much longer) rest of each line.
_HEADER = re.compile(rb'\{"(key|template)": "([0-9a-f]{64})", ')

#: Where a record lives: (shard, byte offset, byte length).
_Where = tuple[Path, int, int]


@dataclass
class CacheStats:
    """Telemetry of one cache's lifetime (typically one campaign leg)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt_evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt_evictions": self.corrupt_evictions,
        }


class ResultCache:
    """A directory of packed ``shard-*.jsonl`` execution results."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        # Read side: built by the first lookup, extended by own puts.
        self._cells: dict[str, _Where] | None = None
        self._template_records: dict[str, _Where] = {}
        self._templates: dict[str, TraceTemplate] = {}
        self._readers: dict[Path, BinaryIO] = {}
        # Write side: this instance's own shard, opened by the first put.
        self._shard: BinaryIO | None = None
        self._shard_path = Path()
        self._shard_pid = 0
        self._shard_size = 0
        self._shard_templates: set[str] = set()

    # -- reading ------------------------------------------------------------

    def get(self, request: ExecutionRequest) -> ExecutionResult | None:
        """The stored result for ``request``, or ``None`` on a miss.

        A present-but-unreadable record is a miss too, tallied in
        :attr:`stats` so campaign summaries can report it, and dropped
        from this instance's view of the store.
        """
        result = self._load(request.cache_key())
        if result is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        result.cached = True
        return result

    def completed_keys(self) -> set[str]:
        """The request keys with a record in the store."""
        return set(self._index())

    def __len__(self) -> int:
        return len(self._index())

    def results(self) -> Iterator[ExecutionResult]:
        """Every readable stored result, in key order."""
        for key in sorted(self._index()):
            result = self._load(key)
            if result is not None:
                yield result

    def _index(self) -> dict[str, _Where]:
        if self._cells is None:
            self._cells = {}
            for path in sorted(self.directory.glob("shard-*.jsonl")):
                offset = 0
                with open(path, "rb") as handle:
                    for line in handle:
                        header = _HEADER.match(line)
                        if header is not None and line.endswith(b"}\n"):
                            table = (
                                self._cells
                                if header[1] == b"key"
                                else self._template_records
                            )
                            table[header[2].decode("ascii")] = (
                                path, offset, len(line)
                            )
                        elif line.strip():
                            self.stats.corrupt_evictions += 1
                        offset += len(line)
        return self._cells

    def _read(self, where: _Where) -> dict:
        path, offset, length = where
        reader = self._readers.get(path)
        if reader is None:
            reader = self._readers[path] = open(path, "rb")
        reader.seek(offset)
        return json.loads(reader.read(length))

    def _load(self, key: str) -> ExecutionResult | None:
        cells = self._index()
        where = cells.get(key)
        if where is None:
            return None
        try:
            record = self._read(where)
            if "template" in record:
                result = ExecutionResult(
                    name=record["name"],
                    request_key=record["key"],
                    events=self._template(record["template"]).fill(
                        record["holes"]
                    ),
                    **ExecutionResult.outcome_from_dict(record),
                )
            else:
                # An older writer's inline cell brings its own events.
                result = ExecutionResult.from_dict(
                    {"request_key": record["key"], **record}
                )
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            self.stats.corrupt_evictions += 1
            del cells[key]
            return None
        return result

    def _template(self, digest: str) -> TraceTemplate:
        """The template ``digest`` names; ``KeyError`` when no shard has it."""
        if digest not in self._templates:
            body = self._read(self._template_records[digest])
            self._templates[digest] = TraceTemplate.from_body(body, digest)
        return self._templates[digest]

    # -- writing ------------------------------------------------------------

    def put(
        self, request: ExecutionRequest, result: ExecutionResult
    ) -> TraceTemplate:
        """Append ``result`` under ``request``'s key and flush it.

        Returns the store's instance of the result's template: the
        first one put or read under its digest.  A caller that rebinds
        the result to it shares one template, and its per-template
        memos, across every equal trace in the store.
        """
        key = request.cache_key()
        shard = self._writer()
        template = result.template
        #: (index the record belongs in, its id, its line), in write order.
        pending: list[tuple[dict[str, _Where] | None, str, bytes]] = []
        if template.digest not in self._shard_templates:
            pending.append((
                self._template_records,
                template.digest,
                _line({"template": template.digest, **template.body()}),
            ))
        record = {
            "key": key,
            "name": result.name,
            "template": template.digest,
            "holes": list(result.holes),
            **result.outcome_dict(),
        }
        pending.append((self._cells, key, _line(record)))
        try:
            shard.write(b"".join(line for _, _, line in pending))
            shard.flush()
        except BaseException:
            # Whatever part of the write landed is a torn tail; never
            # append after it.
            self._shard = None
            raise
        for table, name, line in pending:
            if table is not None:  # the cell index may not be built yet
                table[name] = (self._shard_path, self._shard_size, len(line))
            self._shard_size += len(line)
        self._shard_templates.add(template.digest)
        self.stats.stores += 1
        return self._templates.setdefault(template.digest, template)

    def _writer(self) -> BinaryIO:
        """This instance's shard, created on first use — and again in a
        forked child, which must not append through its parent's handle."""
        if self._shard is None or self._shard_pid != os.getpid():
            self._shard_pid = os.getpid()
            self._shard_path = self.directory / (
                f"shard-{time.time_ns():016x}-{self._shard_pid}-"
                f"{os.urandom(4).hex()}.jsonl"
            )
            self._shard = open(self._shard_path, "xb")
            self._shard_size = 0
            self._shard_templates = set()
        return self._shard


def _line(record: dict) -> bytes:
    return json.dumps(record, default=repr).encode("ascii") + b"\n"
