"""Experiment scaffolding: figure-shaped results and the process-pool runner."""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ExperimentError

#: Environment variable consulted for the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (1 — fully serial — when unset)."""
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ExperimentError(f"{JOBS_ENV_VAR}={raw!r} is not an integer") from None
    if jobs < 1:
        raise ExperimentError(f"{JOBS_ENV_VAR} must be >= 1, got {jobs}")
    return jobs


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


class ExperimentRunner:
    """Fans independent sweep tasks out to a ``multiprocessing`` pool.

    Every simulation is seeded and single-threaded, so sweep points are
    embarrassingly parallel: results are collected in task order and are
    bit-identical to a serial run.  The CLI builds one from
    :func:`default_jobs` when more than one job is asked for; serial
    execution is no runner at all (``runner=None``).  With one job — or
    with a task function the pickler cannot ship (e.g. a closure) —
    execution stays serial, so a runner is always safe to use.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def map_tasks(self, func: Callable, tasks: Sequence) -> list:
        """Apply ``func`` to every task; results come back in task order."""
        tasks = list(tasks)
        workers = min(self.jobs, len(tasks))
        if workers <= 1 or not _picklable((func, tasks)):
            return [func(task) for task in tasks]
        with multiprocessing.get_context().Pool(workers) as pool:
            # Pool.map preserves task order, so the result list is
            # indistinguishable from the serial one.
            return pool.map(func, tasks)


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True
