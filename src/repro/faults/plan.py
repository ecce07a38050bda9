"""Fault plans: declarative, seed-derived failure timelines.

A :class:`FaultPlan` is nothing but data — a sorted tuple of
:class:`FaultEvent` rows — so two plans generated from the same seed
compare equal.  All randomness flows through
:func:`repro.util.randomness.derive_rng`, which is the whole
determinism story: same seed, same timeline, same simulation.

Event kinds
===========

``node-crash`` / ``node-restart``
    Target is a node name.  Crash = ``leave()`` (the address lease is
    released; in-flight packets to it drop).  Restart = ``rejoin()``
    under a fresh IP, honouring the node's retry policy.
``liglo-down`` / ``liglo-up``
    Target is a LIGLO host name.  The host suspends *keeping its
    address* (a LIGLO's address is its identity), so members can reach
    it again after ``liglo-up`` without re-registering.
``partition`` / ``partition-heal``
    ``groups`` (in params) is a tuple of host-name tuples; packets
    crossing groups drop with reason ``partition``.
``link-window``
    A bounded loss/delay window on one directed host pair (params
    ``src``/``dst``) or the whole fabric (no ``src``): for ``duration``
    seconds the link's ``loss_probability``/``latency`` are overridden,
    then restored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import FaultPlanError
from repro.util.randomness import derive_rng

KIND_NODE_CRASH = "node-crash"
KIND_NODE_RESTART = "node-restart"
KIND_LIGLO_DOWN = "liglo-down"
KIND_LIGLO_UP = "liglo-up"
KIND_PARTITION = "partition"
KIND_PARTITION_HEAL = "partition-heal"
KIND_LINK_WINDOW = "link-window"

KNOWN_KINDS = frozenset(
    {
        KIND_NODE_CRASH,
        KIND_NODE_RESTART,
        KIND_LIGLO_DOWN,
        KIND_LIGLO_UP,
        KIND_PARTITION,
        KIND_PARTITION_HEAL,
        KIND_LINK_WINDOW,
    }
)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault, `time` seconds after the injector arms."""

    time: float
    kind: str
    target: str = ""
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultPlanError(f"fault at negative time {self.time}")
        if self.kind not in KNOWN_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {sorted(KNOWN_KINDS)}"
            )

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered fault timeline."""

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0
    notes: str = ""

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.time, e.kind, e.target)))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last scheduled fault (0.0 for an empty plan)."""
        return self.events[-1].time if self.events else 0.0

    def extended(self, extra: Iterable[FaultEvent]) -> "FaultPlan":
        """A new plan with ``extra`` events merged in (re-sorted)."""
        return FaultPlan(self.events + tuple(extra), seed=self.seed, notes=self.notes)

    # -- builders ----------------------------------------------------------

    @staticmethod
    def node_session(name: str, crash_at: float, downtime: float) -> tuple[FaultEvent, FaultEvent]:
        """A crash/restart pair for one node."""
        if downtime <= 0:
            raise FaultPlanError(f"downtime must be > 0, got {downtime}")
        return (
            FaultEvent(crash_at, KIND_NODE_CRASH, name),
            FaultEvent(crash_at + downtime, KIND_NODE_RESTART, name),
        )

    @staticmethod
    def liglo_outage(name: str, down_at: float, duration: float) -> tuple[FaultEvent, FaultEvent]:
        """A bounded outage of one fixed-IP LIGLO host."""
        if duration <= 0:
            raise FaultPlanError(f"duration must be > 0, got {duration}")
        return (
            FaultEvent(down_at, KIND_LIGLO_DOWN, name),
            FaultEvent(down_at + duration, KIND_LIGLO_UP, name),
        )

    @staticmethod
    def partition_window(
        groups: Sequence[Sequence[str]], start: float, duration: float
    ) -> tuple[FaultEvent, FaultEvent]:
        """A bounded partition splitting hosts into ``groups``."""
        if duration <= 0:
            raise FaultPlanError(f"duration must be > 0, got {duration}")
        frozen = tuple(tuple(group) for group in groups)
        return (
            FaultEvent(start, KIND_PARTITION, params=(("groups", frozen),)),
            FaultEvent(start + duration, KIND_PARTITION_HEAL),
        )

    @staticmethod
    def link_window(
        start: float,
        duration: float,
        src: str | None = None,
        dst: str | None = None,
        loss_probability: float | None = None,
        latency: float | None = None,
    ) -> FaultEvent:
        """A loss/delay window on one directed pair (or the default link)."""
        if duration <= 0:
            raise FaultPlanError(f"duration must be > 0, got {duration}")
        if loss_probability is None and latency is None:
            raise FaultPlanError("link window needs loss_probability and/or latency")
        if (src is None) != (dst is None):
            raise FaultPlanError("link window needs both src and dst, or neither")
        params: list[tuple[str, Any]] = [("duration", duration)]
        if src is not None:
            params += [("src", src), ("dst", dst)]
        if loss_probability is not None:
            if not 0.0 <= loss_probability <= 1.0:
                raise FaultPlanError(
                    f"loss_probability must be in [0, 1], got {loss_probability}"
                )
            params.append(("loss_probability", loss_probability))
        if latency is not None:
            if latency < 0:
                raise FaultPlanError(f"latency must be >= 0, got {latency}")
            params.append(("latency", latency))
        return FaultEvent(start, KIND_LINK_WINDOW, params=tuple(params))

    # -- generators --------------------------------------------------------

    @classmethod
    def churn(
        cls,
        node_names: Sequence[str],
        rate: float,
        horizon: float,
        seed: int = 0,
        min_downtime: float = 0.5,
        max_downtime: float = 5.0,
        start: float = 0.0,
    ) -> "FaultPlan":
        """Session churn: a ``rate`` fraction of nodes crash and restart.

        Mirrors the session-turnover measurements of the Gnutella
        lineage (Saroiu et al.): each selected node's session ends at a
        uniform time inside ``[start, start + horizon)`` and it returns
        after a uniform downtime.  Everything is drawn from
        ``derive_rng(seed, "churn", ...)`` so the timeline replays
        bit-identically from the seed.
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultPlanError(f"churn rate must be in [0, 1], got {rate}")
        if horizon <= 0:
            raise FaultPlanError(f"horizon must be > 0, got {horizon}")
        if not 0 < min_downtime <= max_downtime:
            raise FaultPlanError(
                f"need 0 < min_downtime <= max_downtime, got "
                f"{min_downtime}/{max_downtime}"
            )
        rng = derive_rng(seed, "churn", rate, horizon, len(node_names))
        count = round(rate * len(node_names))
        victims = sorted(rng.sample(list(node_names), count))
        events: list[FaultEvent] = []
        for name in victims:
            crash_at = start + rng.uniform(0.0, horizon)
            downtime = rng.uniform(min_downtime, max_downtime)
            events.extend(cls.node_session(name, crash_at, downtime))
        return cls(
            tuple(events),
            seed=seed,
            notes=f"churn rate={rate} over {horizon}s: {count} sessions end",
        )
