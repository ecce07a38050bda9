"""Structured trace-event collection.

Subsystems record :class:`TraceEvent` rows (message sent, agent executed,
peer replaced, packet dropped...) into a shared :class:`Tracer`.  The
evaluation harness and tests read the trace instead of scraping logs.
:meth:`Tracer.record` on a disabled tracer returns after one attribute
check, but its arguments are built by the caller first: the call sites
that run once per packet (``Host.send``, ``Host._dispatch``, the agent
engine's dedup and execute records, ``Network._drop`` and
``Network._drop_undecodable``) and the wire encoder's per-send hit
counter test ``tracer.enabled`` themselves, so that a run without
tracing formats no addresses or ids there.  Rarer records (membership,
per query) still pay for their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured trace record."""

    time: float
    category: str
    label: str
    fields: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """Look up one field by name."""
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def __str__(self) -> str:
        parts = " ".join(f"{name}={value!r}" for name, value in self.fields)
        return f"[{self.time:.6f}] {self.category}:{self.label} {parts}".rstrip()


@dataclass
class Tracer:
    """Collects trace events; can be disabled."""

    enabled: bool = True
    events: list[TraceEvent] = field(default_factory=list)
    #: running counters for very hot events (e.g. wire-encoder cache hits)
    #: that would swamp ``events`` if recorded individually
    counters: dict[tuple[str, str], int] = field(default_factory=dict)

    def record(self, time: float, category: str, label: str, **fields: Any) -> None:
        """Record one event (no-op if disabled)."""
        if not self.enabled:
            return
        self.events.append(TraceEvent(time, category, label, tuple(fields.items())))

    def select(self, category: str, label: str | None = None) -> Iterator[TraceEvent]:
        """Iterate events of one category (and optionally one label)."""
        for event in self.events:
            if event.category != category:
                continue
            if label is not None and event.label != label:
                continue
            yield event

    def bump(self, category: str, name: str) -> None:
        """Increment a running counter by one (no-op if disabled)."""
        if not self.enabled:
            return
        key = (category, name)
        self.counters[key] = self.counters.get(key, 0) + 1

    def counter(self, category: str, name: str) -> int:
        """Current value of one running counter (0 when never bumped)."""
        return self.counters.get((category, name), 0)

    def clear(self) -> None:
        """Drop all recorded events and counters."""
        self.events.clear()
        self.counters.clear()


#: Shared "off" tracer for components constructed without one.
NULL_TRACER = Tracer(enabled=False)
