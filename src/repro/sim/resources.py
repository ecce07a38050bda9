"""The FIFO service resource: a host CPU's thread pool."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class FifoServer:
    """Queueing server: ``capacity`` parallel slots, FIFO admission.

    ``submit(service_time, callback, *args)`` admits a job: it is served
    for ``service_time`` once a slot is free, and then ``callback(*args)``
    runs.  ``charge(service_time)`` admits a job with nothing to run when
    it ends.  Queueing delay is implicit, which is exactly how a single-
    or multi-threaded CPU behaves.

    Jobs are admitted in time order, so the server needs no queue: a job
    starts at ``max(now, earliest slot free time)`` and ends
    ``service_time`` later (the Kiefer–Wolfowitz recursion).  The server
    keeps one free time per slot; a submit schedules its callback once,
    at the job's end, and a charge schedules nothing.  A queued job's
    event draws its sequence number when it is submitted, not when the
    job ahead of it ends, so it can fire before another event due at the
    same instant that was scheduled in between.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "server"):
        if capacity < 1:
            raise SimulationError(f"server capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: when each slot next falls free, as a heap (earliest at the root)
        self._free_at = [0.0] * capacity
        #: simulated service time and jobs, counted at admission (so they
        #: equal what was served once the simulation is quiet)
        self.busy_time = 0.0
        self.jobs_served = 0

    def submit(self, service_time: float, callback: Callable[..., None], *args: Any) -> None:
        """Admit one job; ``callback(*args)`` runs when its service ends."""
        self.sim.schedule_at(self.charge(service_time), callback, *args)

    def charge(self, service_time: float) -> float:
        """Admit one job with nothing to run at its end; returns that end.

        The job holds a slot exactly as ``submit(service_time, noop)``
        would, so later jobs queue behind it, but it costs no kernel event.
        """
        if service_time < 0:
            raise SimulationError(f"negative service time {service_time}")
        now = self.sim.now
        free_at = self._free_at[0]
        end = (free_at if free_at > now else now) + service_time
        heapq.heapreplace(self._free_at, end)
        self.busy_time += service_time
        self.jobs_served += 1
        return end
