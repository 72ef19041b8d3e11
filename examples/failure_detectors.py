"""P built from timeouts on SS.

The paper's opening observation of Section 3 — timeouts implement a
perfect failure detector in the synchronous model — executed on the
step kernel, with the lifted history checked against P's two axioms and
the measured detection delays against the derived bound.

Run:  python examples/failure_detectors.py
"""

import random

from repro.failures import (
    FailurePattern,
    TimeoutPerfectDetector,
    classify_history,
    detection_delays,
    detection_threshold,
    history_from_run,
)
from repro.models import SynchronousModel, validate_ss_run


def main() -> None:
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
    print("history satisfies P:", not report.violations)
    for (observer, crashed), delay in sorted(detection_delays(run).items()):
        print(
            f"  p{observer} detected p{crashed}'s crash after {delay} of "
            f"its own steps (bound {threshold + delta + 1})"
        )


if __name__ == "__main__":
    main()
