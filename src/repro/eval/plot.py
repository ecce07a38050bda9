"""ASCII line plots for reproduced figures.

Terminal-friendly rendering so ``python -m repro figure 5c --plot``
shows the shape, not just the numbers.  One character cell per (column,
row); each series gets a letter from its legend; overlapping points
render ``*``.
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.eval.experiment import FigureResult


#: Plot area in character cells.
WIDTH = 64
HEIGHT = 16


def render_ascii_plot(result: FigureResult) -> str:
    """Render a FigureResult as a WIDTH x HEIGHT ASCII chart with a legend."""
    if not result.series:
        raise ExperimentError("nothing to plot: the figure has no series")
    names = sorted(result.series)
    markers = {name: chr(ord("A") + i % 26) for i, name in enumerate(names)}
    xs = [x for name in names for x, _ in result.series[name]]
    ys = [y for name in names for _, y in result.series[name]]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    for name in names:
        marker = markers[name]
        for x, y in result.series[name]:
            column = round((x - x_low) / x_span * (WIDTH - 1))
            row = HEIGHT - 1 - round((y - y_low) / y_span * (HEIGHT - 1))
            current = grid[row][column]
            grid[row][column] = marker if current in (" ", marker) else "*"

    lines = [f"{result.figure}: {result.title}"]
    top_label = f"{y_high:.4g}"
    bottom_label = f"{y_low:.4g}"
    gutter = max(len(top_label), len(bottom_label)) + 1
    for index, row in enumerate(grid):
        if index == 0:
            label = top_label.rjust(gutter - 1)
        elif index == HEIGHT - 1:
            label = bottom_label.rjust(gutter - 1)
        else:
            label = " " * (gutter - 1)
        lines.append(f"{label}|{''.join(row)}")
    lines.append(" " * gutter + "-" * WIDTH)
    x_axis = f"{x_low:.4g}".ljust(WIDTH - 8) + f"{x_high:.4g}".rjust(8)
    lines.append(" " * gutter + x_axis)
    lines.append(
        "legend: "
        + "  ".join(f"{markers[name]}={name}" for name in names)
        + "   (* = overlap)"
    )
    return "\n".join(lines)
