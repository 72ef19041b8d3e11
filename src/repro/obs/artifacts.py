"""Content-addressed run artifacts for sweep, fuzz and mc campaigns.

A long campaign is only as credible as its paper trail.  This module
gives every campaign a *run directory* — ``runs/<run_id>/`` — whose
name is a content hash of the campaign's identity: the request cache
keys, which already cover the cache schema version and any active bug
injection.  Two invocations of the same campaign therefore land in
the same directory, which is what makes interruption recovery trivial:
the second leg finds the first leg's completed cells on disk and skips
them.

Layout of one run directory::

    runs/<run_id>/
        manifest.json     identity, provenance, planned cells, status
        results/          the completed cells' results: one packed
                          shard-*.jsonl per writing leg, template and
                          cell records (a ResultCache, which owns the
                          format)
        metrics.jsonl     one line per completed cell, appended (and
                          flushed) a run at a time as the campaign
                          progresses — the audit log across legs
        progress.jsonl    ProgressReporter heartbeats
        summary.json      coverage, cache stats, span aggregates, SLO
                          verdicts — written when a leg finishes

The manifest records *plan* and *provenance*; ``results/`` records
*facts*; ``summary.json`` records *verdicts*.  Resume counters in the
summary (``completed_before`` / ``re_executed``) are how a restarted
campaign proves it re-executed nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Mapping, Sequence

from repro.inject import active_injection

#: Bump when the manifest/summary layout changes incompatibly.
RUN_SCHEMA = 1

#: Manifest/summary file names within a run directory.
MANIFEST_NAME = "manifest.json"
SUMMARY_NAME = "summary.json"
METRICS_NAME = "metrics.jsonl"
PROGRESS_NAME = "progress.jsonl"
RESULTS_DIR = "results"

#: The run kinds this layer knows how to summarize.
RUN_KINDS = ("sweep", "fuzz")


#: ``json.dumps(value, sort_keys=True, default=repr)``, and the same
#: without ``sort_keys``, without building an encoder per call.
_canonical = json.JSONEncoder(sort_keys=True, default=repr).encode
_encode = json.JSONEncoder(default=repr).encode


def _document(payload: Mapping[str, Any]) -> str:
    """A manifest or summary as JSON text: one sorted top-level key per
    line, so the file stays greppable by section, each value encoded
    compactly by the C encoder (``indent`` would switch ``json`` to its
    pure-Python one, several times slower on a 2000-cell manifest)."""
    return (
        "{\n"
        + ",\n".join(
            f"  {json.dumps(key)}: {_canonical(payload[key])}"
            for key in sorted(payload)
        )
        + "\n}\n"
    )


def _audit_parts(fields: Mapping[str, Any]) -> tuple[str, str, str]:
    """A cell's sorted-key audit line around its ``cell`` and ``key``
    values: the text before the first, between the two, and after the
    second, each group of keys encoded on its own."""
    groups: tuple[dict[str, Any], ...] = ({}, {}, {})
    for name, value in fields.items():
        if name not in ("cell", "key"):
            groups[(name > "cell") + (name > "key")][name] = value
    before, between, after = (_canonical(group)[1:-1] for group in groups)
    return (
        "{" + before + ', "cell": ',
        ", " + between + ', "key": ',
        ", " + after + "}\n",
    )


def open_on_fresh_line(path: str | Path) -> BinaryIO:
    """Open the JSONL file ``path`` for appending, so that the next
    write starts on a fresh line: a record a killed leg left torn (no
    final newline) is closed off first, never glued to the next one."""
    handle = open(path, "a+b")
    end = handle.seek(0, os.SEEK_END)
    if end:
        handle.seek(end - 1)
        if handle.read(1) != b"\n":
            handle.write(b"\n")
    return handle


def compute_run_id(kind: str, identity: Any) -> str:
    """A stable content hash naming one campaign.

    ``identity`` must already cover everything that determines the
    campaign's results — the request cache keys do (they hash engine
    semantics version and bug injections).
    """
    digest = hashlib.sha256(
        _canonical({"schema": RUN_SCHEMA, "kind": kind, "identity": identity})
        .encode("utf-8")
    ).hexdigest()
    return digest[:16]


def git_provenance(repo_dir: str | Path | None = None) -> dict[str, Any]:
    """Best-effort ``{commit, dirty}`` of the working tree.

    Never raises: outside a git checkout (or without a git binary) the
    commit is recorded as ``None`` — provenance is an audit aid, not a
    precondition for running campaigns.
    """
    # Here, not at the top: only a run directory's first leg shells out.
    import subprocess

    cwd = str(repo_dir) if repo_dir is not None else None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        ).stdout.strip() or None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


@dataclass(frozen=True)
class SLOConfig:
    """Pass/fail thresholds a campaign's summary is judged against.

    The evaluation only emits verdicts for thresholds that apply to the
    run at hand.
    """

    #: Fraction of planned cells that must have completed results.
    min_coverage: float = 1.0
    #: Cells the trace oracle flagged (when checking ran) must not exceed.
    max_oracle_failures: int = 0
    #: Corrupt cache entries evicted during the campaign must not exceed.
    max_corrupt_evictions: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "min_coverage": self.min_coverage,
            "max_oracle_failures": self.max_oracle_failures,
            "max_corrupt_evictions": self.max_corrupt_evictions,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SLOConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def evaluate_slos(slo: SLOConfig, summary: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Judge a summary against the thresholds; one verdict per applicable SLO.

    Each verdict is ``{"slo", "threshold", "actual", "ok"}``.  An SLO
    whose section is absent from the summary (no ``oracle`` on an
    unchecked sweep) gets no verdict: absence of evidence is not a
    violation, and the coverage SLO already guards against empty
    campaigns.
    """
    verdicts: list[dict[str, Any]] = []

    def judge(name: str, threshold: Any, actual: Any, ok: bool) -> None:
        verdicts.append(
            {"slo": name, "threshold": threshold, "actual": actual, "ok": ok}
        )

    coverage = summary.get("coverage", {})
    fraction = coverage.get("fraction")
    if fraction is not None:
        judge(
            "coverage",
            slo.min_coverage,
            fraction,
            fraction >= slo.min_coverage,
        )

    oracle = summary.get("oracle")
    if oracle is not None:
        failures = oracle.get("failed", 0)
        judge(
            "oracle_failures",
            slo.max_oracle_failures,
            failures,
            failures <= slo.max_oracle_failures,
        )

    cache = summary.get("cache")
    if cache is not None:
        evictions = cache.get("corrupt_evictions", 0)
        judge(
            "corrupt_evictions",
            slo.max_corrupt_evictions,
            evictions,
            evictions <= slo.max_corrupt_evictions,
        )

    return verdicts


@dataclass
class RunDir:
    """One campaign's artifact directory; see the module docstring."""

    path: Path
    manifest: dict[str, Any] = field(default_factory=dict)
    #: This leg's append handle on ``metrics.jsonl``: opened by the
    #: first record, closed when the leg ends.
    _metrics: BinaryIO | None = field(default=None, repr=False, compare=False)

    # -- construction --------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str | Path,
        *,
        kind: str,
        name: str,
        identity: Any,
        cells: Sequence[tuple[str, str]] | None = None,
        config: Mapping[str, Any] | None = None,
    ) -> "RunDir":
        """Create — or, when the campaign already ran, re-attach to — a run.

        ``root`` is the runs root (e.g. ``runs/``); the actual
        directory is ``root/<run_id>`` with the id derived from
        ``identity``.  An existing manifest for the same id means a
        prior leg of the *same* campaign: its provenance is preserved,
        ``legs`` is bumped, and completed results stay in place so the
        new leg resumes instead of re-executing.
        """
        if kind not in RUN_KINDS:
            raise ValueError(f"unknown run kind {kind!r}; choose from {RUN_KINDS}")
        run_id = compute_run_id(kind, identity)
        path = Path(root) / run_id
        path.mkdir(parents=True, exist_ok=True)
        (path / RESULTS_DIR).mkdir(exist_ok=True)

        manifest_path = path / MANIFEST_NAME
        prior: dict[str, Any] = {}
        if manifest_path.exists():
            try:
                prior = json.loads(manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                prior = {}

        manifest = {
            "schema": RUN_SCHEMA,
            "kind": kind,
            "run_id": run_id,
            "name": name,
            "status": "running",
            "legs": int(prior.get("legs", 0)) + 1,
            "git": prior.get("git") or git_provenance(),
            "injection": active_injection(),
            "config": dict(config or {}),
            "slo": SLOConfig().to_dict(),
            "cells": [
                {"name": cell_name, "key": cell_key}
                for cell_name, cell_key in (cells or [])
            ],
            "planned": len(cells) if cells is not None else None,
        }
        run = cls(path=path, manifest=manifest)
        run._write_manifest()
        return run

    @classmethod
    def load(cls, path: str | Path) -> "RunDir":
        """Attach to an existing run directory (read side)."""
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise FileNotFoundError(
                f"{path} is not a run directory (no readable {MANIFEST_NAME}): {exc}"
            ) from exc
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: invalid JSON: {exc}") from exc
        return cls(path=path, manifest=manifest)

    # -- identity ------------------------------------------------------------

    @property
    def run_id(self) -> str:
        return self.manifest.get("run_id", self.path.name)

    @property
    def kind(self) -> str:
        return self.manifest.get("kind", "sweep")

    @property
    def slo(self) -> SLOConfig:
        return SLOConfig.from_dict(self.manifest.get("slo", {}))

    @property
    def results_dir(self) -> Path:
        return self.path / RESULTS_DIR

    # -- the facts side ------------------------------------------------------

    def completed_keys(self) -> set[str]:
        """Request keys whose results are already on disk (prior legs).

        A leg that is about to use the store should ask its own
        :class:`~repro.runtime.cache.ResultCache` instead — the same
        answer from the index it needs anyway.
        """
        # The store's format belongs to the runtime's cache module;
        # imported here because obs is otherwise below the runtime.
        from repro.runtime.cache import ResultCache

        return ResultCache(self.results_dir).completed_keys()

    def record_cell(
        self,
        cells: Sequence[tuple[str, str]],
        *,
        cached: bool,
        engine: str | None = None,
        algorithm: str | None = None,
        latency: int | None = None,
        num_rounds: int | None = None,
        events: int | None = None,
        duration_s: float | None = None,
    ) -> None:
        """Append one completed-cell line per ``(name, key)`` of
        ``cells`` to ``metrics.jsonl``, in one write.

        Called once per run per leg with the cells the run served,
        which agree in every other field (a cache hit is a run of one,
        flagged ``cached``), so the file is a complete audit log of what
        each leg observed, in completion order.  Each line is the
        record's sorted-key JSON; for a run of several cells, everything
        but ``cell`` and ``key`` is encoded once and the two spliced in.
        """
        # In sorted key order already: sort_keys would not move one.
        fields = {
            "algorithm": algorithm,
            "cached": cached,
            "cell": None,
            "duration_s": duration_s,
            "engine": engine,
            "events": events,
            "key": None,
            "latency": latency,
            "leg": self.manifest.get("legs", 1),
            "num_rounds": num_rounds,
            "t": "cell",
        }
        if len(cells) == 1:
            fields["cell"], fields["key"] = cells[0]
            self._append(_encode(fields) + "\n")
            return
        head, middle, rest = _audit_parts(fields)
        self._append("".join(
            head + _encode(name) + middle + _encode(key) + rest
            for name, key in cells
        ))

    def _append(self, lines: str) -> None:
        """Write ``lines`` to ``metrics.jsonl``, flushed: a leg killed at
        any point leaves every run it reported on disk."""
        if self._metrics is None:
            self._metrics = open_on_fresh_line(self.path / METRICS_NAME)
        self._metrics.write(lines.encode("ascii"))
        self._metrics.flush()

    def metrics_records(self) -> list[dict[str, Any]]:
        return self._read_jsonl(METRICS_NAME)

    def progress_records(self) -> list[dict[str, Any]]:
        return self._read_jsonl(PROGRESS_NAME)

    @property
    def progress_path(self) -> Path:
        return self.path / PROGRESS_NAME

    # -- the verdicts side ---------------------------------------------------

    def finalize(
        self, summary: Mapping[str, Any], *, status: str = "complete"
    ) -> None:
        """Write ``summary.json`` and flip the manifest to ``status``."""
        payload = dict(summary)
        payload.setdefault("schema", RUN_SCHEMA)
        payload.setdefault("run_id", self.run_id)
        payload.setdefault("kind", self.kind)
        (self.path / SUMMARY_NAME).write_text(
            _document(payload), encoding="utf-8"
        )
        self.manifest["status"] = status
        self._end_leg()

    def mark_interrupted(self) -> None:
        """Record that this leg died mid-campaign (resume will finish it)."""
        self.manifest["status"] = "interrupted"
        self._end_leg()

    def summary(self) -> dict[str, Any] | None:
        try:
            return json.loads(
                (self.path / SUMMARY_NAME).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None

    # -- plumbing ------------------------------------------------------------

    def _write_manifest(self) -> None:
        (self.path / MANIFEST_NAME).write_text(
            _document(self.manifest), encoding="utf-8"
        )

    def _end_leg(self) -> None:
        if self._metrics is not None:
            self._metrics.close()
            self._metrics = None
        self._write_manifest()

    def _read_jsonl(self, name: str) -> list[dict[str, Any]]:
        try:
            with open(self.path / name, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return []
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # a torn write from a killed leg is not news
        return records


def identity_for_requests(requests: Iterable[Any]) -> list[str]:
    """The campaign identity of a request-based run: sorted cache keys.

    Cache keys already hash the engine semantics version and any active
    bug injection, so campaigns under a mutated engine get their own
    run directory — mirroring how :class:`~repro.runtime.cache.ResultCache`
    keeps mutated results apart.
    """
    return sorted(request.cache_key() for request in requests)
