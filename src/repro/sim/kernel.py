"""The discrete-event simulator core: a deterministic event heap.

Determinism guarantees:

* events at equal times fire in scheduling order (a monotone sequence
  number breaks heap ties), and
* the kernel itself never consults the wall clock or global RNG.

Every heap entry is ``(time, seq, callback, args)``.  An event that can
be cancelled (:meth:`Simulator.schedule`) goes on as ``(time, seq, None,
timer)``, so its :class:`Timer` is checked when it is popped; one that
cannot (:meth:`Simulator.schedule_at`) carries its callback itself and
costs no handle.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SchedulingError


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    A *daemon* timer (periodic housekeeping like LIGLO validity checks)
    never keeps an unbounded ``run()`` alive: the run stops when only
    daemon timers remain on the heap.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "daemon", "_sim")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple,
        daemon: bool = False,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancelled(self)


def _cancelled(entry: tuple) -> bool:
    """Is this heap entry a cancelled :class:`Timer`'s?"""
    return entry[2] is None and entry[3].cancelled


class Simulator:
    """Deterministic discrete-event scheduler.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, print, "fires at t=1.5")
        sim.run()
    """

    #: Never compact heaps smaller than this: the sweep is O(n) and tiny
    #: heaps recycle their cancelled entries through ordinary pops anyway.
    COMPACTION_MIN_HEAP = 64

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None] | None, Any]] = []
        self._sequence = 0
        self._running = False
        # Live (non-cancelled) event counts, adjusted at schedule, cancel
        # and fire time — cancelled entries still sitting on the heap are
        # already excluded, so ``pending_events`` is O(1) and ``run()``
        # never mistakes a sea of cancelled timers for remaining work.
        self._regular_count = 0  # live non-daemon events
        self._live_count = 0  # live events of either kind

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        return self._schedule(self.now + delay, callback, args, daemon=False)

    def schedule_daemon(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Timer:
        """Schedule housekeeping that must not keep ``run()`` alive."""
        return self._schedule(self.now + delay, callback, args, daemon=True)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``, bit for bit.

        Nothing can cancel it, so it gets no :class:`Timer`: the heap entry
        carries the callback itself.
        """
        if time < self.now:  # inline: this runs once per packet
            self._check_not_past(time)
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, callback, args))
        self._live_count += 1
        self._regular_count += 1

    def _schedule(
        self, time: float, callback: Callable[..., None], args: tuple, daemon: bool
    ) -> Timer:
        self._check_not_past(time)
        timer = Timer(time, callback, args, daemon=daemon, sim=self)
        self._sequence += 1
        heapq.heappush(self._heap, (time, self._sequence, None, timer))
        self._live_count += 1
        if not daemon:
            self._regular_count += 1
        return timer

    def _check_not_past(self, time: float) -> None:
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time}: simulated time is already "
                f"{self.now} ({self.now - time} late)"
            )

    def _note_cancelled(self, timer: Timer) -> None:
        """A live timer was cancelled (its heap entry lingers until popped)."""
        self._live_count -= 1
        if not timer.daemon:
            self._regular_count -= 1
        # Heap compaction: suspicion-driven timer churn (fault plans
        # cancelling whole retry ladders) can leave the heap mostly
        # corpses, and every pop then pays a skip tax.  Once cancelled
        # entries outnumber live ones, sweep them out in one O(n)
        # heapify — (time, seq) keys are unchanged, so ordering is too.
        # In place, because ``run`` holds the list.
        heap = self._heap
        if len(heap) >= self.COMPACTION_MIN_HEAP and len(heap) > 2 * self._live_count:
            heap[:] = [entry for entry in heap if not _cancelled(entry)]
            heapq.heapify(heap)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event.  Returns False if the heap is empty."""
        heap = self._heap
        while heap:
            time, _seq, callback, args = heapq.heappop(heap)
            if callback is None:  # a Timer's entry: ``args`` is the handle
                timer = args
                if timer.cancelled:
                    continue  # counts were adjusted when it was cancelled
                callback, args = timer.callback, timer.args
                daemon = timer.daemon
            else:
                daemon = False
            self._live_count -= 1
            if not daemon:
                self._regular_count -= 1
            self.now = time
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None) -> float:
        """Run until the work drains (or simulated time passes ``until``).

        With no ``until``, the run stops when only daemon (housekeeping)
        timers remain — a network with periodic LIGLO checks still
        quiesces.  With ``until``, everything (daemons included) runs up
        to that simulated time.  Returns the final simulated time.

        An exception a callback raises aborts the run and propagates from
        here.
        """
        if self._running:
            raise SchedulingError("simulator is already running (no recursion)")
        self._running = True
        heap = self._heap
        try:
            while heap:
                if until is None and self._regular_count == 0:
                    break
                if until is not None:
                    # Bound the next live event, not a cancelled head:
                    # step() would skip that one and fire the next.
                    following = self.peek()
                    if following is None:
                        break
                    if following > until:
                        self.now = until
                        break
                self.step()
        finally:
            self._running = False
        return self.now

    def peek(self) -> float | None:
        """Time of the next pending event, or None when idle."""
        heap = self._heap
        while heap and _cancelled(heap[0]):
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events on the heap (O(1))."""
        return self._live_count
