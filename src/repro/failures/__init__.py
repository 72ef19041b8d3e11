"""Failure patterns, failure-detector histories, and the perfect detector.

Implements Sections 2.1, 2.5 and 2.6 of the paper: crash failure
patterns ``F : T -> 2^Π``, failure-detector histories
``H : Π × T -> 2^Π``, and the perfect failure detector ``P`` that
defines the SP model, with checkers for its two axioms.  Also provides
the timeout-based implementation of ``P`` on top of the synchronous
model (the opening observation of the paper's Section 3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "pattern": ("FailurePattern",),
        "history": (
            "FailureDetectorHistory",
            "TableHistory",
            "FunctionHistory",
            "ConstantHistory",
        ),
        "detectors": ("PerfectDetector",),
        "properties": (
            "check_strong_completeness",
            "check_strong_accuracy",
            "classify_history",
            "PropertyReport",
        ),
        "generators": (
            "random_pattern",
        ),
        "timeout_p": (
            "TimeoutDetectorState",
            "TimeoutPerfectDetector",
            "detection_threshold",
            "history_from_run",
            "detection_delays",
        ),
    },
)

__all__ = [
    "FailurePattern",
    "FailureDetectorHistory",
    "TableHistory",
    "FunctionHistory",
    "ConstantHistory",
    "PerfectDetector",
    "check_strong_completeness",
    "check_strong_accuracy",
    "classify_history",
    "PropertyReport",
    "random_pattern",
    "TimeoutDetectorState",
    "TimeoutPerfectDetector",
    "detection_threshold",
    "history_from_run",
    "detection_delays",
]
