"""Background campaign heartbeats: cells/sec, ETA, cache hits.

An overnight sweep that prints nothing until it finishes is
indistinguishable from a hung one.  :class:`ProgressReporter` fixes
that with a tiny daemon thread that, every ``interval_s`` seconds,
emits one heartbeat — a human line to a stream (stderr in the CLIs)
and a JSON record to ``progress.jsonl`` in the run directory, which is
what ``repro top`` tails.

The reporter is deliberately decoupled from the runner: workers call
:meth:`advance` (thread-safe, O(1)) and the reporter samples that
state on its own clock.  ``stop()`` always emits one final heartbeat,
so even sub-interval campaigns leave a complete progress record.
"""

from __future__ import annotations

import json
import sys
import threading
from time import monotonic
from typing import Any, IO, Mapping

from repro.obs.artifacts import open_on_fresh_line


class ProgressReporter:
    """Heartbeat emitter for one campaign leg.

    Args:
        total: Planned work items (cells, cases) this leg.
        path: Where to append JSON heartbeats (``progress.jsonl``), or
            ``None`` for stream-only reporting.
        stream: Where to print human heartbeat lines (default stderr);
            ``None`` silences the stream side.
        interval_s: Seconds between heartbeats.
        label: Campaign tag shown in every line (e.g. the space name).
    """

    def __init__(
        self,
        total: int,
        *,
        path: Any = None,
        stream: IO[str] | None = sys.stderr,
        interval_s: float = 2.0,
        label: str = "run",
    ) -> None:
        self.total = total
        self.path = path
        self.stream = stream
        self.interval_s = interval_s
        self.label = label
        self._done = 0
        self._cached = 0
        self._lock = threading.Lock()
        self._started = monotonic()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- producer side (the runner) -----------------------------------------

    def advance(self, *, cached: bool = False, cells: int = 1) -> None:
        """Record ``cells`` completed work items (any thread)."""
        with self._lock:
            self._done += cells
            if cached:
                self._cached += cells

    # -- sampling side -------------------------------------------------------

    def heartbeat(self, *, status: str = "running") -> dict[str, Any]:
        """One JSON-ready snapshot of where the campaign stands."""
        with self._lock:
            done, cached = self._done, self._cached
        elapsed = max(monotonic() - self._started, 1e-9)
        rate = done / elapsed
        remaining = max(self.total - done, 0)
        eta = remaining / rate if rate > 0 else None
        return {
            "t": "progress",
            "label": self.label,
            "status": status,
            "done": done,
            "total": self.total,
            "cached": cached,
            "elapsed_s": round(elapsed, 3),
            "cells_per_s": round(rate, 3),
            "eta_s": round(eta, 3) if eta is not None else None,
        }

    def emit(self, *, status: str = "running") -> dict[str, Any]:
        """Emit one heartbeat now (stream + file); returns the record."""
        record = self.heartbeat(status=status)
        if self.path is not None:
            line = json.dumps(record, sort_keys=True) + "\n"
            try:
                with open_on_fresh_line(self.path) as handle:
                    handle.write(line.encode("utf-8"))
            except OSError:
                pass  # progress must never kill the campaign
        if self.stream is not None:
            eta = record["eta_s"]
            eta_text = f"{eta:.0f}s" if eta is not None else "?"
            print(
                f"[{self.label}] {record['done']}/{record['total']} "
                f"({record['cached']} cached) "
                f"{record['cells_per_s']:.1f} cells/s eta {eta_text}",
                file=self.stream,
            )
            try:
                self.stream.flush()
            except (OSError, ValueError):
                pass
        return record

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ProgressReporter":
        """Spawn the heartbeat thread (daemon: never blocks exit)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="progress-reporter", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, *, status: str = "complete") -> dict[str, Any]:
        """Stop the thread and emit the final heartbeat."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + 1.0)
            self._thread = None
        return self.emit(status=status)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.emit()


def latest_progress(records: list[Mapping[str, Any]]) -> Mapping[str, Any] | None:
    """The most recent heartbeat of a ``progress.jsonl`` record list."""
    for record in reversed(records):
        if record.get("t") == "progress":
            return record
    return None
