"""Small descriptive-statistics helpers for metrics and reports."""

from repro.stats.summary import percentile

__all__ = ["percentile"]
