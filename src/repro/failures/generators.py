"""Failure-pattern generators for experiments and exhaustive checks."""

from __future__ import annotations

import random

from repro.errors import ConfigurationError
from repro.failures.pattern import FailurePattern


def random_pattern(
    n: int,
    max_failures: int,
    horizon: int,
    rng: random.Random,
) -> FailurePattern:
    """Draw a random pattern with at most ``max_failures`` crashes.

    The number of crashes is uniform on ``0 .. max_failures``; crashed
    processes and crash times are uniform.  Times range over
    ``0 .. horizon`` so initially-dead processes do occur.
    """
    if max_failures >= n:
        raise ConfigurationError(
            f"max_failures={max_failures} must be < n={n} "
            "(at least one process must be correct)"
        )
    k = rng.randint(0, max_failures)
    victims = rng.sample(range(n), k)
    crashes = {pid: rng.randint(0, horizon) for pid in victims}
    return FailurePattern.with_crashes(n, crashes)
