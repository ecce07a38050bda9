"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event heap
(:class:`Simulator`), cancellable :class:`Timer` handles, and the FIFO
slot clock :class:`FifoServer` used to model CPU thread pools.
"""

from repro.sim.kernel import Simulator, Timer
from repro.sim.resources import FifoServer

__all__ = [
    "Simulator",
    "Timer",
    "FifoServer",
]
