"""High-level API: the paper's experiments, runnable by id.

The :data:`~repro.core.experiments.EXPERIMENTS` registry maps the
experiment ids of DESIGN.md (E1–E15) to runnable functions; each
returns an :class:`~repro.core.experiments.ExperimentResult` comparing
the paper's claim to what this library measures.  The command-line
interface (``python -m repro``), the tests and EXPERIMENTS.md all draw
from this single source.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "experiments": (
            "ExperimentResult",
            "EXPERIMENTS",
            "run_experiment",
            "run_all_experiments",
        ),
        "extensions": ("EXTENSIONS", "run_extension", "run_all_extensions"),
        "report": ("generate_report", "write_report"),
    },
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "run_all_experiments",
    "EXTENSIONS",
    "run_extension",
    "run_all_extensions",
    "generate_report",
    "write_report",
]
