"""Hosts and the network fabric.

A :class:`Host` owns a CPU (a :class:`~repro.sim.resources.FifoServer`
with one slot per "thread") and an uplink NIC, a departure clock rather
than a queue.  Sending a payload really encodes it as a wire frame,
charges the NIC for the wire size, schedules one kernel event at the
packet's arrival (departure plus link latency), and there dispatches the
decoded payload to the receiver's protocol handler *on the receiver's
CPU* — so a single-threaded host genuinely serializes its message
handling, which is what separates SCS from MCS in the paper.
Same-instant arrivals fire in send order.

Delivery is datagram-like: packets to offline hosts or stale addresses
are silently dropped (and traced).  Protocols needing reliability build
timeouts on top, exactly as the paper's LIGLO validity checks do.
"""

from __future__ import annotations

from types import MethodType
from typing import Any, Callable, Sequence

from repro.errors import (
    HostOffline,
    NetworkError,
    UnknownProtocolError,
    WireDecodeError,
)
from repro.net.address import AddressPool, IPAddress
from repro.net.link import LinkModel
from repro.net.message import PACKET_OVERHEAD_BYTES, Packet
from repro.sim import FifoServer, Simulator
from repro.util.randomness import derive_rng
from repro.util.serialization import WireEncoder
from repro.util.tracing import NULL_TRACER, Tracer

#: CPU time to accept a packet and dispatch it to a handler (seconds).
#: Calibrated to the paper's era: receiving, parsing, and routing one
#: message through a Java network stack on a 200 MHz Pentium II costs
#: milliseconds.  Reverse-path protocols (CS, Gnutella) pay this twice
#: per hop - once for the query, once for every relayed result.
DISPATCH_TIME = 0.003
#: CPU threads of a host unless its creator says otherwise (the BestPeer
#: prototype is threaded; the client/server and Gnutella baselines set
#: their own).
CPU_THREADS = 8
#: Seed of the packet-loss stream (only lossy links draw from it).
LOSS_SEED = 0


def _call(handler: Callable[..., Any], *args: Any) -> Any:
    """The ``func`` of a plain callable split by :func:`split_callable`."""
    return handler(*args)


def split_callable(handler: Callable[..., Any]) -> tuple[Callable[..., Any], Any]:
    """``(func, owner)`` such that ``func(owner, *args)`` is ``handler(*args)``.

    A bound method splits into its function and its object, so a
    long-lived holder of the pair keeps no method object alive; any
    other callable is its own owner, called through a trampoline.
    """
    if type(handler) is MethodType:
        return handler.__func__, handler.__self__
    return _call, handler


class Host:
    """One machine on the simulated network.  Create via ``Network.create_host``."""

    def __init__(self, network: "Network", name: str, cpu_threads: int):
        self.network = network
        self.sim: Simulator = network.sim
        self.name = name
        self.cpu = FifoServer(self.sim, capacity=cpu_threads, name=f"{name}.cpu")
        self.nic_free_at = 0.0  # when the uplink's last transmission ends
        self.dispatch_time = DISPATCH_TIME
        self.address: IPAddress | None = None
        self.online = False
        #: down-but-holding-its-lease (a crashed fixed-IP server, not churn)
        self.suspended = False
        #: protocol -> ``func(owner, packet)`` (see :func:`split_callable`),
        #: so a bind keeps no object per protocol
        self._handlers: dict[str, Callable[[Any, Packet], None]] = {}
        self._owners: dict[str, Any] = {}
        #: counters
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.sends_while_down = 0

    # -- lifecycle ----------------------------------------------------------

    def connect(self) -> IPAddress:
        """Come online, leasing a (usually fresh) IP address."""
        if self.online:
            raise NetworkError(f"host {self.name} is already online")
        self.address = self.network._lease_address(self)
        self.online = True
        self.network.tracer.record(
            self.sim.now, "net", "connect", host=self.name, address=str(self.address)
        )
        return self.address

    def disconnect(self) -> None:
        """Go offline, releasing the leased address; in-flight packets drop."""
        if not self.online:
            raise NetworkError(f"host {self.name} is already offline")
        assert self.address is not None
        self.network.tracer.record(
            self.sim.now, "net", "disconnect", host=self.name, address=str(self.address)
        )
        self.network._release_address(self)
        self.address = None
        self.online = False

    def suspend(self) -> None:
        """Go dark *without* releasing the address lease.

        Models the crash of a fixed-IP machine (a LIGLO server, whose
        address *is* its identity): packets to it drop while it is down,
        and :meth:`resume` brings it back at the same address.  Churning
        peers use :meth:`disconnect`/:meth:`connect` instead, which is
        the paper's dynamic-IP story.
        """
        if not self.online:
            raise NetworkError(f"host {self.name} is not online; cannot suspend")
        self.online = False
        self.suspended = True
        self.network.tracer.record(
            self.sim.now, "net", "suspend", host=self.name, address=str(self.address)
        )

    def resume(self) -> None:
        """Come back up at the address held through :meth:`suspend`."""
        if not self.suspended:
            raise NetworkError(f"host {self.name} is not suspended")
        self.online = True
        self.suspended = False
        self.network.tracer.record(
            self.sim.now, "net", "resume", host=self.name, address=str(self.address)
        )

    # -- protocol binding ---------------------------------------------------

    def bind(self, protocol: str, handler: Callable[[Packet], None]) -> None:
        """Register ``handler(packet)`` for one protocol name."""
        if protocol in self._handlers:
            raise NetworkError(f"host {self.name} already binds protocol {protocol!r}")
        self._handlers[protocol], self._owners[protocol] = split_callable(handler)

    def unbind(self, protocol: str) -> None:
        """Remove a protocol handler."""
        self._handlers.pop(protocol, None)
        self._owners.pop(protocol, None)

    # -- sending ------------------------------------------------------------

    def send(self, dst: IPAddress, protocol: str, payload: Any) -> int:
        """Transmit ``payload`` to ``dst``; returns the wire size in bytes.

        Encoding happens immediately (the frame's length prices the
        transmission), but through the network's
        :class:`~repro.util.serialization.WireEncoder`, so a fan-out loop
        sending one payload object to many peers encodes it once.  A
        payload no wire spec takes raises
        :class:`~repro.errors.WireEncodeError`: a sender bug.  The
        packet then queues on this host's NIC and arrives ``latency``
        after its transmission completes.  The receiver decodes the
        send-time bytes on delivery into a message nothing can change —
        never an object another host holds — and dropped packets skip
        that work entirely.
        """
        if self.suspended:
            # A crashed machine's still-scheduled housekeeping (e.g. a
            # LIGLO validity sweep) fires into the void: swallow the
            # send rather than abort the run — the machine is down.
            self.sends_while_down += 1
            self.network.tracer.bump("net", "send-while-down")
            return 0
        if not self.online or self.address is None:
            raise HostOffline(f"host {self.name} cannot send while offline")
        frame = self.network.encoder.encode(payload)
        wire_size = len(frame) + PACKET_OVERHEAD_BYTES
        packet = Packet(self.address, dst, protocol, wire_size, self.sim.now, frame)
        self.messages_sent += 1
        self.bytes_sent += wire_size
        link = self.network.link_for(self.address, dst)
        departure = max(self.sim.now, self.nic_free_at) + link.transmission_time(wire_size)
        self.nic_free_at = departure
        if self.network.tracer.enabled:  # per packet: see _dispatch
            self.network.tracer.record(
                departure,
                "net",
                "send",
                src=str(packet.src),
                dst=str(dst),
                protocol=protocol,
                size=wire_size,
            )
        self.sim.schedule_at(departure + link.latency, self.network._arrive, packet, link)
        return wire_size

    # -- receiving ----------------------------------------------------------

    def _receive(self, packet: Packet) -> None:
        """Called by the network when a packet reaches this (online) host."""
        protocol = packet.protocol
        func = self._handlers.get(protocol)
        if func is None:
            raise UnknownProtocolError(f"host {self.name} has no handler for {protocol!r}")
        self.messages_received += 1
        # The class's function, not a bound method: nothing is allocated per
        # packet for the job, which pays for the owner lookup above
        owner = self._owners[protocol]
        self.cpu.submit(self.dispatch_time, Host._dispatch, self, func, owner, packet)

    def _dispatch(
        self, func: Callable[[Any, Packet], None], owner: Any, packet: Packet
    ) -> None:
        tracer = self.network.tracer
        if tracer.enabled:  # per packet: build no strings for a tracer that is off
            tracer.record(
                self.sim.now,
                "net",
                "deliver",
                host=self.name,
                protocol=packet.protocol,
                src=str(packet.src),
                size=packet.wire_size,
            )
        try:
            func(owner, packet)
        except WireDecodeError as exc:
            # A malformed frame must never take down the delivery loop:
            # the packet is dropped and the drop is counted.
            self.network._drop_undecodable(packet, exc)

    def __repr__(self) -> str:
        state = str(self.address) if self.online else "offline"
        return f"Host({self.name}, {state})"


class Network:
    """The fabric connecting hosts: address leases, links, delivery."""

    def __init__(
        self,
        sim: Simulator,
        pool: AddressPool | None = None,
        tracer: Tracer | None = None,
    ):
        self.sim = sim
        self.pool = pool if pool is not None else AddressPool()
        self.default_link = LinkModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: shared wire-path fast path: encode each payload object once
        #: per fan-out instead of once per recipient
        self.encoder = WireEncoder(tracer=self.tracer)
        self._loss_rng = derive_rng(LOSS_SEED, "packet-loss")
        self.hosts: dict[str, Host] = {}
        self._routes: dict[IPAddress, Host] = {}
        self._links: dict[tuple[IPAddress, IPAddress], LinkModel] = {}
        #: host name -> partition group id; empty means no partition
        self._partition: dict[str, int] = {}
        #: counters
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.bytes_carried = 0
        self.decode_errors = 0
        #: per-cause drop counts (loss, partition, no-route, ...)
        self.drops_by_reason: dict[str, int] = {}

    @property
    def encode_hits(self) -> int:
        """Wire-encoder cache hits (payloads not re-serialized)."""
        return self.encoder.hits

    @property
    def encode_misses(self) -> int:
        """Wire-encoder cache misses (payloads handed to the codec)."""
        return self.encoder.misses

    # -- host management ----------------------------------------------------

    def create_host(self, name: str, cpu_threads: int = CPU_THREADS) -> Host:
        """Create and connect a host."""
        if name in self.hosts:
            raise NetworkError(f"duplicate host name {name!r}")
        host = Host(self, name, cpu_threads)
        self.hosts[name] = host
        host.connect()
        return host

    def _lease_address(self, host: Host) -> IPAddress:
        address = self.pool.lease()
        self._routes[address] = host
        return address

    def _release_address(self, host: Host) -> None:
        assert host.address is not None
        del self._routes[host.address]
        self.pool.release(host.address)

    # -- links ---------------------------------------------------------------

    def link_for(self, src: IPAddress, dst: IPAddress) -> LinkModel:
        """Link model for a directed pair (falls back to the default)."""
        return self._links.get((src, dst), self.default_link)

    def set_link(self, src: IPAddress, dst: IPAddress, link: LinkModel) -> None:
        """Override the link model for one directed address pair."""
        self._links[(src, dst)] = link

    def clear_link(self, src: IPAddress, dst: IPAddress) -> None:
        """Drop a per-pair link override (back to the default link)."""
        self._links.pop((src, dst), None)

    # -- partitions -----------------------------------------------------------

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the fabric: packets between different groups drop.

        ``groups`` are host *names* (stable across address churn).  A
        host named in no group keeps full connectivity — a partition of
        the overlay need not mention the infrastructure.  Replaces any
        partition already in force.
        """
        assignment: dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                if name in assignment:
                    raise NetworkError(f"host {name!r} named in two partition groups")
                if name not in self.hosts:
                    raise NetworkError(f"unknown host {name!r} in partition")
                assignment[name] = index
        self._partition = assignment
        self.tracer.record(
            self.sim.now, "net", "partition", groups=len(groups), hosts=len(assignment)
        )

    def heal_partition(self) -> None:
        """Restore full connectivity (idempotent)."""
        if self._partition:
            self.tracer.record(self.sim.now, "net", "heal-partition")
        self._partition = {}

    def _crosses_partition(self, src: IPAddress, dst: IPAddress) -> bool:
        if not self._partition:
            return False
        src_host = self._routes.get(src)
        dst_host = self._routes.get(dst)
        if src_host is None or dst_host is None:
            return False  # no-route handles it
        src_group = self._partition.get(src_host.name)
        dst_group = self._partition.get(dst_host.name)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    # -- delivery ------------------------------------------------------------

    def _arrive(self, packet: Packet, link: LinkModel) -> None:
        """The packet reaches the far end of ``link``: lose, cut or deliver it."""
        if link.loss_probability > 0.0 and self._loss_rng.random() < link.loss_probability:
            self._drop(packet, reason="loss")
            return
        if self._crosses_partition(packet.src, packet.dst):
            self._drop(packet, reason="partition")
            return
        host = self._routes.get(packet.dst)
        if host is None:
            self._drop(packet, reason="no-route")
            return
        if host.address != packet.dst:
            self._drop(packet, reason="stale-address")
            return
        if not host.online:
            self._drop(packet, reason="host-down" if host.suspended else "stale-address")
            return
        self.packets_delivered += 1
        self.bytes_carried += packet.wire_size
        host._receive(packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.packets_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        tracer = self.tracer
        if not tracer.enabled:  # churn drops many packets: format nothing for them
            return
        if reason == "loss":
            tracer.bump("net", "loss")
        tracer.record(
            self.sim.now,
            "net",
            "drop",
            dst=str(packet.dst),
            protocol=packet.protocol,
            reason=reason,
        )

    def _drop_undecodable(self, packet: Packet, error: WireDecodeError) -> None:
        """A delivered packet's frame failed to decode: drop and count."""
        self.decode_errors += 1
        self.drops_by_reason["decode-error"] = (
            self.drops_by_reason.get("decode-error", 0) + 1
        )
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.bump("net", "decode-error")
        tracer.record(
            self.sim.now,
            "net",
            "drop",
            dst=str(packet.dst),
            protocol=packet.protocol,
            reason="decode-error",
            error=str(error),
        )


class Deployment:
    """A built system on one network: BestPeer's or a baseline's nodes,
    node 0 the base that issues the queries."""

    def __init__(self, sim: Simulator, network: Network, nodes: list):
        self.sim = sim
        self.network = network
        self.nodes = nodes

    @property
    def base(self):
        """The designated query initiator (node 0 by convention)."""
        return self.nodes[0]

    def node(self, index: int):
        return self.nodes[index]

    def populate(self, fill: Callable[[Any, int], None]) -> None:
        """Run ``fill(node, index)`` for every node (workload loading)."""
        for index, node in enumerate(self.nodes):
            fill(node, index)
