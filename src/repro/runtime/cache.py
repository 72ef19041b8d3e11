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
    A run's cells are written together, and what follows ``D`` is
    encoded once for the cells that share it: the run's first cell,
    whose ``extra`` carries the span snapshot, and once for all its
    twins.

``{"template": D, "events": [...], "positions": [...], "metrics": {...}}``
    One template, written to a shard once, before the first cell in it
    that cites ``D`` — so every shard can be read on its own.  Its
    ``metrics`` are part of the digested body; a reader folds them
    from the events again instead of reading them.

A writer appends a run's records in one write and flushes after every
run, so a killed campaign keeps every completed run; a kill inside
that write tears at most the last line on disk, and the run's cells
from there on are misses again.  Shard names sort by creation time and
a later record of a key wins, which is how a re-executed cell replaces
a damaged one.

This module is the only one that knows the format.  Corrupt or
unreadable records — a line torn by a dying writer, foreign junk, a
cell citing no template or one that is nowhere in the directory — are
served as misses, never as errors: a cache must only ever make things
faster.
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
import operator
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from repro.obs.template import TraceTemplate
from repro.runtime.request import ExecutionResult

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

    def get(self, key: str) -> ExecutionResult | None:
        """The result stored under ``key`` (a request's
        :meth:`~repro.runtime.request.ExecutionRequest.cache_key`), or
        ``None`` on a miss.

        A present-but-unreadable record is a miss too, tallied in
        :attr:`stats` so campaign summaries can report it, and dropped
        from this instance's view of the store.
        """
        result = self._load(key)
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
            result = ExecutionResult(
                name=record["name"],
                request_key=record["key"],
                events=self._template(record["template"]).fill(
                    record["holes"]
                ),
                **ExecutionResult.outcome_from_dict(record),
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

    def put(self, results: Sequence[ExecutionResult]) -> TraceTemplate:
        """Append one run's cells, each under its ``request_key``, in one
        write, and flush it.

        ``results`` cite one template, the way the cells a sweep served
        from one run do (:func:`repro.runtime.sweep.execute_cells`).
        Returns the store's instance of that template: the first one put
        or read under its digest.  A caller that rebinds the results to
        it shares one template, and its per-template memos, across every
        equal trace in the store.
        """
        template = results[0].template
        if any(result.template is not template for result in results):
            raise ValueError("a put's cells must cite one template")
        digest = template.digest
        #: (index the record belongs in, its id, its line), in write order.
        pending: list[tuple[dict[str, _Where] | None, str, bytes]] = []
        if digest not in self._shard_templates:
            pending.append((
                self._template_records,
                digest,
                _line({"template": digest, **template.body()}),
            ))
        cited = f', "template": {_encode(digest)}, '
        for result, tail in zip(results, _tails(results)):
            line = (
                f'{{"key": {_encode(result.request_key)}, '
                f'"name": {_encode(result.name)}{cited}{tail}'
            )
            pending.append(
                (self._cells, result.request_key, line.encode("ascii"))
            )
        shard = self._writer()
        try:
            shard.write(b"".join(line for _, _, line in pending))
            shard.flush()
        except BaseException:
            # Whatever part of the write landed is a torn tail; never
            # append after it.
            self._close_shard()
            raise
        for table, name, line in pending:
            if table is not None:  # the cell index may not be built yet
                table[name] = (self._shard_path, self._shard_size, len(line))
            self._shard_size += len(line)
        self._shard_templates.add(digest)
        self.stats.stores += len(results)
        return self._templates.setdefault(digest, template)

    def close(self) -> None:
        """Close this instance's shard and every shard it read from.

        The store stays usable: a later lookup reopens what it reads,
        and a later :meth:`put` starts a shard of its own.
        """
        self._close_shard()
        for reader in self._readers.values():
            reader.close()
        self._readers.clear()

    def _close_shard(self) -> None:
        shard, self._shard = self._shard, None
        if shard is not None:
            try:
                shard.close()
            except OSError:
                pass  # a torn write's buffer: the record is lost either way

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


#: ``json.dumps(value, default=repr)``, without building an encoder per call.
_encode = json.JSONEncoder(default=repr).encode


def _line(record: dict) -> bytes:
    return _encode(record).encode("ascii") + b"\n"


def _tails(results: Sequence[ExecutionResult]) -> list[str]:
    """Each cell line's text after its template digest: holes,
    decisions, latency, num_rounds and extra, newline-terminated.

    The cells of one run hold one trace, one ``decisions`` and one
    ``latency``/``num_rounds`` object, so those are encoded once for
    every cell holding the first cell's (by identity: an equal ``True``
    is no ``1``).  ``extra`` is each cell's own, but a run's twins hold
    alike ones (its first cell alone keeps the span snapshot): they are
    encoded as one list, and when that equals copies of the first twin's
    encoding, every twin's is that one — a JSON array's text fixes the
    text of each element.
    """
    first, twins = results[0], results[1:]
    shared = _outcome(first)
    tails = [f'{shared}, "extra": {_encode(first.extra)}}}\n']
    if not twins:
        return tails
    extras = [result.extra for result in twins]
    extra = _encode(extras[0])
    alike = _encode(extras) == "[" + ", ".join([extra] * len(extras)) + "]"
    held = (first.events, first.decisions, first.latency, first.num_rounds)
    for result in twins:
        own = (
            result.events, result.decisions, result.latency, result.num_rounds
        )
        middle = (
            shared if all(map(operator.is_, own, held)) else _outcome(result)
        )
        tails.append(
            f'{middle}, "extra": '
            f'{extra if alike else _encode(result.extra)}}}\n'
        )
    return tails


def _outcome(result: ExecutionResult) -> str:
    """A cell line's ``"holes": ..., "decisions": ..., "latency": ...,
    "num_rounds": ...`` text."""
    record = {"holes": list(result.holes), **result.outcome_dict()}
    del record["extra"]
    return _encode(record)[1:-1]
