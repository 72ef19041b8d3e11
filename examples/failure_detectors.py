"""The failure-detector hierarchy, and P built from timeouts on SS.

Two demonstrations:

1. Every class of the Chandra–Toueg hierarchy generates histories that
   satisfy exactly its advertised axioms (checked mechanically).
2. The paper's opening observation of Section 3 — timeouts implement a
   perfect failure detector in the synchronous model — executed on the
   step kernel, with measured detection delays against the derived
   bound.

Run:  python examples/failure_detectors.py
"""

import random

from repro.failures import (
    DETECTOR_CLASSES,
    FailurePattern,
    TimeoutPerfectDetector,
    classify_history,
    detection_delays,
    detection_threshold,
    history_from_run,
)
from repro.models import SynchronousModel, validate_ss_run


def hierarchy_demo() -> None:
    print("=== the Chandra-Toueg hierarchy ===")
    pattern = FailurePattern.with_crashes(4, {1: 10, 3: 25})
    rng = random.Random(42)
    horizon = 100
    print(f"pattern: {pattern.describe()}\n")
    print(f"{'class':>4}  {'axioms promised':<45} satisfied")
    for name, detector_cls in DETECTOR_CLASSES.items():
        detector = detector_cls()
        history = detector.history(pattern, horizon=horizon, rng=rng)
        report = classify_history(history, pattern, horizon)
        print(
            f"{name:>4}  {detector.properties.describe():<45} "
            f"{report.matches_class(name)}"
        )
    print()


def timeout_p_demo() -> None:
    print("=== P from timeouts on SS ===")
    n, phi, delta = 3, 1, 2
    threshold = detection_threshold(n, phi, delta)
    print(
        f"n={n}, Φ={phi}, Δ={delta}: suspect after {threshold} silent "
        f"steps ((n-1)(Φ+1)+Δ)\n"
    )
    pattern = FailurePattern.with_crashes(n, {1: 30})
    model = SynchronousModel(phi=phi, delta=delta)
    executor = model.executor(
        TimeoutPerfectDetector(n, phi, delta),
        n,
        pattern,
        rng=random.Random(9),
        record_states=True,
    )
    run = executor.execute(300)
    print("SS synchrony violations:", validate_ss_run(run, phi, delta) or "none")

    history = history_from_run(run)
    report = classify_history(history, pattern, len(run.schedule) - 1)
    print("history satisfies P:", report.matches_class("P"))
    for (observer, crashed), delay in sorted(detection_delays(run).items()):
        print(
            f"  p{observer} detected p{crashed}'s crash after {delay} of "
            f"its own steps (bound {threshold + delta + 1})"
        )


def main() -> None:
    hierarchy_demo()
    timeout_p_demo()


if __name__ == "__main__":
    main()
