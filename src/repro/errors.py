"""Exception hierarchy for the BestPeer reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulator errors."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped simulator."""


class ProcessError(SimulationError):
    """A coroutine process yielded an unsupported command."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network substrate errors."""


class AddressPoolExhausted(NetworkError):
    """The DHCP-like address pool has no free addresses left."""


class HostOffline(NetworkError):
    """An operation required an online host but it was offline."""


class UnknownProtocolError(NetworkError):
    """A packet arrived for a protocol the host has no handler for."""


class WireCodecError(NetworkError):
    """Base class for wire-codec errors (see :mod:`repro.net.codec`)."""


class WireEncodeError(WireCodecError):
    """A message could not be packed into a wire frame.

    Raised when a value does not fit its field codec (string too long,
    integer out of range) or no registered spec takes the message.
    The wire path treats this as "fall back to pickle", so it never
    escapes to callers of :meth:`~repro.util.serialization.WireEncoder.encode`.
    """


class WireDecodeError(WireCodecError):
    """A wire frame is malformed and cannot be decoded.

    Covers truncated, bit-flipped, wrong-version, unknown-type,
    oversized, and trailing-garbage frames.  A receiving host catches
    it, drops the packet, and counts the drop in tracer stats —
    a corrupt frame must never crash a delivery loop.
    """


# ---------------------------------------------------------------------------
# StorM storage manager
# ---------------------------------------------------------------------------


class StormError(ReproError):
    """Base class for StorM storage manager errors."""


class PageError(StormError):
    """Malformed page, bad slot, or out-of-range page id."""


class BufferError_(StormError):
    """Buffer manager misuse (e.g. unpinning an unpinned page)."""


class BufferFullError(BufferError_):
    """Every frame is pinned; no page can be evicted."""


class RecordNotFound(StormError):
    """No record exists at the requested object id."""


class StorageClosedError(StormError):
    """Operation attempted on a closed store."""


# ---------------------------------------------------------------------------
# Mobile agents
# ---------------------------------------------------------------------------


class AgentError(ReproError):
    """Base class for mobile agent framework errors."""


class CodeShippingError(AgentError):
    """Agent class source could not be extracted, shipped, or loaded.

    Carries the originating agent class name (when known) so engine-level
    handlers — notably the park-and-request path, where the failing class
    is identified only by name — can report *which* class failed without
    parsing the message text.
    """

    def __init__(self, message: str, class_name: str | None = None):
        super().__init__(message)
        self.class_name = class_name


# ---------------------------------------------------------------------------
# LIGLO
# ---------------------------------------------------------------------------


class LigloError(ReproError):
    """Base class for LIGLO name server errors."""


class LigloUnreachableError(LigloError):
    """Every (retried) attempt to reach a LIGLO server went unanswered.

    Carries the number of attempts so callers — and tests — can confirm
    the configured :class:`~repro.util.retry.RetryPolicy` was honoured.
    """

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


# ---------------------------------------------------------------------------
# BestPeer core
# ---------------------------------------------------------------------------


class BestPeerError(ReproError):
    """Base class for BestPeer node errors."""


class PeerTableError(BestPeerError):
    """Peer table misuse (duplicate peer, bad capacity, ...)."""


class QueryError(BestPeerError):
    """Query lifecycle misuse (e.g. collecting a closed query)."""


class SharingError(BestPeerError):
    """Resource-sharing failure (missing share, access denied, ...)."""


class AccessDeniedError(SharingError):
    """An active object refused access for the requester's access level."""


class ReplicationError(BestPeerError):
    """Replication subsystem misuse (bad policy, unknown replica, ...)."""


# ---------------------------------------------------------------------------
# Topologies / workloads / evaluation
# ---------------------------------------------------------------------------


class TopologyError(ReproError):
    """Invalid topology specification."""


class WorkloadError(ReproError):
    """Invalid workload specification."""


class ExperimentError(ReproError):
    """Experiment harness misuse or inconsistent results."""


# ---------------------------------------------------------------------------
# Robustness: retries and fault injection
# ---------------------------------------------------------------------------


class RetryError(ReproError):
    """Base class for retry-policy errors."""


class FaultPlanError(ReproError):
    """Invalid fault plan (unknown kind, unordered window, bad target...)."""
