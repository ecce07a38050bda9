"""Experiment scaffolding: the figure-shaped result every experiment returns."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError


@dataclass
class FigureResult:
    """A reproduced figure: named series of (x, y) points."""

    figure: str
    title: str
    x_label: str
    y_label: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    notes: str = ""
    #: Raw per-point trial dicts, for the figures that report more than
    #: their plotted series (rendered by ``report.format_trials``).
    trials: list[dict] = field(default_factory=list)

    def add_point(self, name: str, x: float, y: float) -> None:
        self.series.setdefault(name, []).append((x, y))

    def series_named(self, name: str) -> list[tuple[float, float]]:
        try:
            return self.series[name]
        except KeyError:
            known = ", ".join(sorted(self.series))
            raise ExperimentError(f"no series {name!r}; known: {known}") from None

    def y_values(self, name: str) -> list[float]:
        return [y for _, y in self.series_named(name)]
