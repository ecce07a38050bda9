"""FIFO service resources: thread pools.

Two flavours:

* :class:`Resource` — generic acquire/release semaphore with FIFO grant
  order, for coroutine processes (``yield resource.acquire()``).
* :class:`FifoServer` — callback-style queueing server: ``submit`` a job
  with a service time; the server runs at most ``capacity`` jobs at once
  and invokes the completion callback when a job's service ends.  This is
  the workhorse for host CPUs (capacity = threads).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Resource:
    """Counting semaphore with FIFO grant order."""

    def __init__(self, sim: "Simulator", capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that triggers when a slot is granted."""
        event = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            event.trigger(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot; the longest-waiting acquirer (if any) gets it."""
        if self.in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            event = self._waiters.popleft()
            event.trigger(self)
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        """Number of acquirers still waiting."""
        return len(self._waiters)


class FifoServer:
    """Queueing server: ``capacity`` parallel servers, FIFO admission.

    ``submit(service_time, callback, *args)`` enqueues a job.  When the
    job reaches a free server it is *served* for ``service_time``, after
    which ``callback(*args)`` runs.  Queueing delay is implicit, which is
    exactly how a single- or multi-threaded CPU behaves.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "server"):
        if capacity < 1:
            raise SimulationError(f"server capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.busy = 0
        self._queue: deque[tuple[float, Callable[..., None], tuple]] = deque()
        #: cumulative simulated time spent serving jobs (for utilization)
        self.busy_time = 0.0
        self.jobs_served = 0

    def submit(self, service_time: float, callback: Callable[..., None], *args: Any) -> None:
        """Enqueue one job."""
        if service_time < 0:
            raise SimulationError(f"negative service time {service_time}")
        if self.busy < self.capacity:
            self._start(service_time, callback, args)
        else:
            self._queue.append((service_time, callback, args))

    def _start(self, service_time: float, callback: Callable[..., None], args: tuple) -> None:
        self.busy += 1
        self.busy_time += service_time
        self.sim.schedule(service_time, self._complete, callback, args)

    def _complete(self, callback: Callable[..., None], args: tuple) -> None:
        self.busy -= 1
        self.jobs_served += 1
        if self._queue:
            next_time, next_callback, next_args = self._queue.popleft()
            self._start(next_time, next_callback, next_args)
        callback(*args)

    @property
    def queue_length(self) -> int:
        """Jobs admitted but not yet being served."""
        return len(self._queue)
