"""Series analysis: the shape checks behind the claim table.

Every qualitative claim EXPERIMENTS.md verifies ("who wins", "where the
crossover falls", "flat across runs") is built from the small functions
here, so :mod:`repro.eval.claims`, the tests, and any downstream
notebooks share one definition of each shape.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ExperimentError
from repro.eval.experiment import FigureResult


def speedup(result: FigureResult, slower: str, faster: str) -> list[float]:
    """Pointwise ratio ``slower / faster`` where both series have x."""
    fast = dict(result.series_named(faster))
    ratios = []
    for x, slow_y in result.series_named(slower):
        fast_y = fast.get(x)
        if fast_y is None:
            continue
        if fast_y <= 0:
            raise ExperimentError(f"non-positive value in series {faster!r} at {x}")
        ratios.append(slow_y / fast_y)
    if not ratios:
        raise ExperimentError(f"series {slower!r} and {faster!r} share no x values")
    return ratios


def crossover(result: FigureResult, a: str, b: str) -> float | None:
    """First shared x where series ``a`` stops being below series ``b``.

    Returns None when ``a`` stays below ``b`` everywhere (no crossover),
    or the x of the first point where ``a >= b``.
    """
    b_points = dict(result.series_named(b))
    shared = [
        (x, y) for x, y in result.series_named(a) if x in b_points
    ]
    if not shared:
        raise ExperimentError(f"series {a!r} and {b!r} share no x values")
    for x, a_y in shared:
        if a_y >= b_points[x]:
            return x
    return None


def is_flat(values: Sequence[float], tolerance: float = 0.1) -> bool:
    """True when the spread is within ``tolerance`` of the maximum."""
    if not values:
        raise ExperimentError("is_flat() of empty series")
    top = max(values)
    if top == 0:
        return True
    return (top - min(values)) <= tolerance * top


def is_monotone_increasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True when each value is >= the previous (within ``slack``×prev)."""
    return all(b >= a * (1.0 - slack) for a, b in zip(values, values[1:]))


def is_monotone_decreasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """True when each value is <= the previous (within ``slack``×prev)."""
    return all(b <= a * (1.0 + slack) for a, b in zip(values, values[1:]))


def dominates(
    result: FigureResult, better: str, worse: str, slack: float = 0.0
) -> bool:
    """True when ``better`` <= ``worse`` at every shared x (with slack)."""
    worse_points = dict(result.series_named(worse))
    shared = [
        (y, worse_points[x])
        for x, y in result.series_named(better)
        if x in worse_points
    ]
    if not shared:
        raise ExperimentError(f"series {better!r} and {worse!r} share no x values")
    return all(b <= w * (1.0 + slack) for b, w in shared)


def growth_factor(values: Sequence[float]) -> float:
    """last / first — how much a series grew end to end."""
    if len(values) < 2:
        raise ExperimentError("growth_factor() needs at least two points")
    if values[0] <= 0:
        raise ExperimentError("growth_factor() needs a positive first value")
    return values[-1] / values[0]


def summarize_shapes(result: FigureResult) -> dict[str, dict[str, float | bool]]:
    """Per-series quick facts: first, last, growth, flatness."""
    summary: dict[str, dict[str, float | bool]] = {}
    for name in sorted(result.series):
        values = result.y_values(name)
        entry: dict[str, float | bool] = {
            "first": values[0],
            "last": values[-1],
            "flat(10%)": is_flat(values, 0.1),
        }
        if len(values) >= 2 and values[0] > 0:
            entry["growth"] = values[-1] / values[0]
        summary[name] = entry
    return summary
