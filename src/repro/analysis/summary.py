"""The paper's conclusion as one table: RS vs RWS latency measures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.latency import profile_and_verify
from repro.rounds.algorithm import RoundAlgorithm
from repro.rounds.executor import RoundModel


@dataclass
class SummaryRow:
    """One (algorithm, model) cell of the headline comparison table."""

    algorithm: str
    model: str
    n: int
    t: int
    uniform_safe: bool
    lat: int | None
    Lat: int | None
    Lambda: int | None

    def cells(self) -> list[str]:
        def fmt(value: int | None) -> str:
            return "-" if value is None else str(value)

        return [
            self.algorithm,
            self.model,
            str(self.n),
            str(self.t),
            "yes" if self.uniform_safe else "NO",
            fmt(self.lat),
            fmt(self.Lat),
            fmt(self.Lambda),
        ]


def latency_summary_table(
    algorithms: Sequence[RoundAlgorithm],
    models: Sequence[RoundModel] = (RoundModel.RS, RoundModel.RWS),
    *,
    n: int = 3,
    t: int = 1,
) -> list[SummaryRow]:
    """Compute the full comparison: safety verdicts and latency measures.

    Latency measures are only meaningful for algorithms that solve the
    problem in the model, so cells of unsafe (algorithm, model) pairs
    hold the safety verdict and dashes.
    """
    rows: list[SummaryRow] = []
    for algorithm in algorithms:
        for model in models:
            # One exploration yields both the verdict and the measures.
            profile, report = profile_and_verify(algorithm, n, t, model)
            safe = report.ok
            rows.append(
                SummaryRow(
                    algorithm=algorithm.name,
                    model=model.value,
                    n=n,
                    t=t,
                    uniform_safe=safe,
                    lat=profile.lat if safe else None,
                    Lat=profile.Lat if safe else None,
                    Lambda=profile.Lambda if safe else None,
                )
            )
    return rows


def format_table(rows: Iterable[SummaryRow]) -> str:
    """Render summary rows as an aligned plain-text table."""
    header = ["algorithm", "model", "n", "t", "uniform", "lat", "Lat", "Λ"]
    body = [row.cells() for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(header))
    ]

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt_line(header), fmt_line(["-" * w for w in widths])]
    lines.extend(fmt_line(line) for line in body)
    return "\n".join(lines)
