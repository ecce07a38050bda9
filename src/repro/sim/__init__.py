"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event heap
(:class:`Simulator`), one-shot value-carrying :class:`Event` objects,
generator-based :class:`Process` coroutines, and the FIFO slot clock
:class:`FifoServer` used to model CPU thread pools.
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator, Timer
from repro.sim.process import Process
from repro.sim.resources import FifoServer

__all__ = [
    "Simulator",
    "Timer",
    "Event",
    "Process",
    "FifoServer",
]
