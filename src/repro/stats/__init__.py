"""Small descriptive-statistics helpers for metrics and reports."""

from repro.stats.summary import Summary, percentile, summarize

__all__ = ["Summary", "percentile", "summarize"]
