"""Initial-configuration builders."""

from __future__ import annotations

from typing import Any


def unanimous(n: int, value: Any = 0) -> tuple[Any, ...]:
    """All processes propose the same value — the C_Opt fast-path case."""
    return tuple([value] * n)


def adversarial_split(n: int, low: Any = 0, high: Any = 1) -> tuple[Any, ...]:
    """Process 0 proposes the minimum, everyone else the maximum.

    The configuration behind most disagreement scenarios: whoever
    learns p0's value decides differently from whoever does not.
    """
    return (low,) + tuple([high] * (n - 1))
