"""``perf_counter`` span timers for the engines' hot paths.

Hot paths wrap themselves in ``with profiled("span.name"):``.  When no
profiler is installed (the default) :func:`profiled` returns a shared
no-op context manager — one attribute read and two trivial method
calls per span, far below measurement noise at the granularity we
instrument (whole executions, not individual steps).  Installing a
:class:`Profiler` with :func:`set_profiler` turns the same call sites
into real timers.

Spans currently emitted by the library:

* ``rounds.execute`` — one round-model execution.
* ``simulation.execute`` — one step-kernel execution.
* ``emulation.rs_on_ss`` / ``emulation.rws_on_sp`` — one emulated run.
* ``detectors.crash_detection_times`` — drawing the per-pair suspicion
  onsets of a perfect-detector history.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.stats import percentile


class _Span:
    """A reusable timing context for one span name."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profiler.record(self._name, perf_counter() - self._start)


class _NoopSpan:
    """Shared do-nothing context manager for the uninstrumented path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Profiler:
    """Accumulates span durations keyed by span name."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def record(self, name: str, seconds: float) -> None:
        self.spans.setdefault(name, []).append(seconds)

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-span count/total/mean/p50/max/p95, JSON-ready."""
        out: dict[str, dict[str, float]] = {}
        for name, samples in sorted(self.spans.items()):
            total = sum(samples)
            out[name] = {
                "count": len(samples),
                "total_s": total,
                "mean_s": total / len(samples),
                "p50_s": percentile(samples, 50),
                "max_s": max(samples),
                "p95_s": percentile(samples, 95),
            }
        return out

    def merge_into(self, registry: Any) -> None:
        """Mirror span samples into ``registry`` histograms
        (``profile.<span>.seconds``)."""
        for name, samples in self.spans.items():
            histogram = registry.histogram(f"profile.{name}.seconds")
            for sample in samples:
                histogram.observe(sample)


_active: Profiler | None = None


def set_profiler(profiler: Profiler | None) -> None:
    """Install (or with ``None``, remove) the process-wide profiler."""
    global _active
    _active = profiler


def get_profiler() -> Profiler | None:
    return _active


def profiled(name: str) -> Any:
    """A context manager timing ``name`` under the installed profiler;
    a shared no-op when none is installed."""
    return _active.span(name) if _active is not None else _NOOP_SPAN
