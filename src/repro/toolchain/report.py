"""Report formatting for the evaluation harnesses.

The benchmark scripts print the same rows the paper's figures plot: per
application, the percentage change of a metric relative to the unsafe,
unoptimized baseline, with the baseline's absolute value alongside (the
numbers printed across the top of each figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FigureSeries:
    """One bar series of a figure: a label plus one value per application."""

    label: str
    values: dict[str, float] = field(default_factory=dict)


@dataclass
class FigureTable:
    """A figure reconstructed as a table: applications x series."""

    title: str
    metric: str
    applications: list[str] = field(default_factory=list)
    baselines: dict[str, float] = field(default_factory=dict)
    series: list[FigureSeries] = field(default_factory=list)

    def add_series(self, label: str) -> FigureSeries:
        series = FigureSeries(label=label)
        self.series.append(series)
        return series

    def rows(self) -> list[dict[str, object]]:
        """One row per application: baseline plus each series value."""
        rows: list[dict[str, object]] = []
        for app in self.applications:
            row: dict[str, object] = {
                "application": app,
                "baseline": self.baselines.get(app, 0.0),
            }
            for series in self.series:
                row[series.label] = series.values.get(app)
            rows.append(row)
        return rows

    def format(self, value_format: str = "{:+.1f}%") -> str:
        """Render the table as fixed-width text (used by the benchmarks)."""
        label_width = max([len("application")] +
                          [len(app) for app in self.applications])
        series_width = max([12] + [len(s.label) for s in self.series]) + 2
        lines = [self.title, "=" * len(self.title)]
        header = (f"{'application'.ljust(label_width)}  {'baseline':>10}  "
                  + "".join(s.label.rjust(series_width) for s in self.series))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows():
            cells = [str(row["application"]).ljust(label_width),
                     f"{row['baseline']:>10.2f}"]
            for series in self.series:
                value = row[series.label]
                if value is None:
                    cells.append("-".rjust(series_width))
                else:
                    cells.append(value_format.format(value).rjust(series_width))
            lines.append("  ".join(cells))
        return "\n".join(lines)


def percent_change(value: float, baseline: float) -> float:
    """Percentage change of ``value`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return 100.0 * (value - baseline) / baseline


def clip(value: float, lower: float, upper: float) -> float:
    """Clip a value into a range (the paper clips Figure 3(b) at +100%)."""
    return max(lower, min(upper, value))
