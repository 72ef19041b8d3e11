"""Descriptive statistics without heavyweight dependencies."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Summary:
    """min/mean/median/max/stdev of a sample.

    ``stdev`` is the *sample* standard deviation
    (:func:`statistics.stdev`, n−1 denominator); ``pstdev`` is the
    *population* standard deviation (:func:`statistics.pstdev`).
    Earlier versions reported the population value under the ``stdev``
    name — both are now explicit fields.
    """

    count: int
    minimum: float
    mean: float
    median: float
    maximum: float
    stdev: float
    pstdev: float

    def describe(self, unit: str = "") -> str:
        suffix = f" {unit}" if unit else ""
        return (
            f"n={self.count}: min={self.minimum:g}{suffix}, "
            f"mean={self.mean:.3g}{suffix}, median={self.median:g}{suffix}, "
            f"max={self.maximum:g}{suffix}, stdev={self.stdev:.3g}"
        )


def summarize(values: Sequence[float] | Iterable[float]) -> Summary:
    """Compute the five-number-ish summary of a non-empty sample."""
    # Here, not at the top: ``percentile`` is all a profiled cell needs,
    # and ``statistics`` brings ``fractions`` and ``decimal`` with it.
    import statistics

    data = list(values)
    if not data:
        raise ValueError("cannot summarize an empty sample")
    return Summary(
        count=len(data),
        minimum=min(data),
        mean=statistics.fmean(data),
        median=statistics.median(data),
        maximum=max(data),
        stdev=statistics.stdev(data) if len(data) > 1 else 0.0,
        pstdev=statistics.pstdev(data) if len(data) > 1 else 0.0,
    )


def percentile(values: Sequence[float] | Iterable[float], p: float) -> float:
    """The ``p``-th percentile of a non-empty sample (0 <= p <= 100).

    Linear interpolation between closest ranks — the same convention as
    ``numpy.percentile``'s default ("linear" method) — so
    ``percentile(data, 50)`` equals the median.  The interpolation uses
    numpy's two-branch lerp (``a + (b-a)·t`` for ``t < 0.5``,
    ``b - (b-a)·(1-t)`` otherwise), which keeps the result monotone in
    ``t`` under floating point and makes the value *bit-identical* to
    ``numpy.percentile``; the previous ``a·(1-t) + b·t`` form drifted
    by one ulp on some inputs, enough to flip threshold comparisons in
    SLO checks.
    """
    data = sorted(values)
    if not data:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(data) == 1:
        return float(data[0])
    rank = (p / 100) * (len(data) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(data[lower])
    weight = rank - lower
    a = float(data[lower])
    b = float(data[upper])
    diff = b - a
    if weight < 0.5:
        return a + diff * weight
    return b - diff * (1 - weight)


def rate(hits: int, total: int) -> float:
    """A safe ratio: 0.0 when the denominator is zero."""
    return hits / total if total else 0.0
