"""Seeded, deterministic fault injection (`repro.faults`).

The paper's premise is that peers are *transient* — they join, crash,
and come back under fresh IPs, and LIGLO plus self-reconfiguration keep
the network useful anyway.  This package makes that regime testable:

* :class:`FaultPlan` — a declarative, seed-derived timeline of node
  crashes/restarts, LIGLO outages, link partitions, and per-link
  loss/delay windows;
* :class:`SimFaultInjector` — schedules a plan onto the discrete-event
  kernel of a built deployment (bit-identical replay from the seed).

See ``docs/ROBUSTNESS.md`` for the fault model and determinism
guarantees.
"""

from repro.faults.injector import SimFaultInjector
from repro.faults.plan import (
    KIND_LIGLO_DOWN,
    KIND_LIGLO_UP,
    KIND_LINK_WINDOW,
    KIND_NODE_CRASH,
    KIND_NODE_RESTART,
    KIND_PARTITION,
    KIND_PARTITION_HEAL,
    FaultEvent,
    FaultPlan,
)

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "SimFaultInjector",
    "KIND_NODE_CRASH",
    "KIND_NODE_RESTART",
    "KIND_LIGLO_DOWN",
    "KIND_LIGLO_UP",
    "KIND_PARTITION",
    "KIND_PARTITION_HEAL",
    "KIND_LINK_WINDOW",
]
