"""Experiment scaffolding: repeated runs and figure-shaped results."""

from __future__ import annotations

import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.util.stats import RunningStats

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
    """Runs a measurement callable across repetitions and aggregates.

    The paper: "the results presented correspond to the average of at
    least three different executions.  The variance across different
    executions was not significant."  Each repetition gets its own seed
    so workload randomness differs while staying reproducible.
    """

    def __init__(self, repetitions: int = 3, base_seed: int = 0):
        if repetitions < 1:
            raise ExperimentError(f"repetitions must be >= 1, got {repetitions}")
        self.repetitions = repetitions
        self.base_seed = base_seed

    def measure(self, run: Callable[[int], float]) -> RunningStats:
        """Call ``run(seed)`` once per repetition; aggregate the floats."""
        stats = RunningStats()
        for value in self.collect(run):
            stats.add(value)
        return stats

    def collect(self, run: Callable[[int], object]) -> list:
        """Call ``run(seed)`` per repetition; return all results."""
        seeds = [self.base_seed + rep for rep in range(self.repetitions)]
        return self.map_tasks(run, seeds)

    def map_tasks(self, func: Callable, tasks: Sequence) -> list:
        """Apply ``func`` to every task, in order.  Subclasses may fan out;
        the base runner is strictly serial."""
        return [func(task) for task in tasks]


class ParallelExperimentRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that fans independent tasks out to a
    ``multiprocessing`` pool.

    Every simulation is seeded and single-threaded, so repetitions and
    sweep points are embarrassingly parallel: results are collected in
    task order and are bit-identical to a serial run.  The CLI passes
    :func:`default_jobs` as ``jobs``; with one job — or with a task
    function the pickler cannot ship (e.g. a closure) — execution silently
    stays serial, so this class is always safe to use.
    """

    def __init__(self, jobs: int, repetitions: int = 3, base_seed: int = 0):
        super().__init__(repetitions=repetitions, base_seed=base_seed)
        self.jobs = jobs
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")

    def map_tasks(self, func: Callable, tasks: Sequence) -> list:
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
