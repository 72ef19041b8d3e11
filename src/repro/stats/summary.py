"""Descriptive statistics without heavyweight dependencies."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


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
