"""The LIGLO server.

Runs on a host with a fixed IP (LIGLO hosts never churn in this
reproduction; their address *is* their identity — the ``liglo_id`` half
of every BPID they issue).  Functions, per Section 3.4:

* issue BPIDs, up to an optional membership ``capacity`` ("a LIGLO
  server can reject any new inquiry on assigning BPID in order to
  preserve the efficiency for the existing members");
* record each member's current IP whenever it announces itself;
* on registration, hand the newcomer an initial list of ``(BPID, IP)``
  direct-peer candidates drawn from its online members;
* periodically check the validity of registered IPs ("In BestPeer,
  LIGLO will periodically check the validity of its registered
  participants' IP addresses") by pinging members and marking the
  silent ones offline;
* (beyond the paper) serve as the super-peer tier's keyword hint
  directory: members publish per-keyword digests of what they share,
  and the super-peer routing strategy asks "who holds this keyword?"
  before flooding — see ``docs/ROUTING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from repro.errors import LigloError
from repro.ids import BPID
from repro.liglo import messages as m
from repro.net.address import IPAddress
from repro.net.message import Packet
from repro.net.network import Host
from repro.net.requests import PendingRequests
from repro.util.tracing import NULL_TRACER, Tracer

#: How many (BPID, IP) pairs a registration reply carries by default.
DEFAULT_INITIAL_PEERS = 5

#: How many holders a hint reply carries at most.
DEFAULT_MAX_HINTS = 64


@dataclass
class MemberEntry:
    """What a LIGLO server knows about one of its members."""

    bpid: BPID
    address: IPAddress
    online: bool
    registered_at: float
    last_seen: float


class LigloServer:
    """LIGLO service bound to one fixed-IP host."""

    def __init__(
        self,
        host: Host,
        capacity: int | None = None,
        initial_peers: int = DEFAULT_INITIAL_PEERS,
        check_interval: float | None = None,
        check_timeout: float = 2.0,
        max_hints: int = DEFAULT_MAX_HINTS,
        tracer: Tracer | None = None,
    ):
        if host.address is None:
            raise LigloError("a LIGLO server needs an online, fixed-IP host")
        if capacity is not None and capacity < 1:
            raise LigloError(f"capacity must be >= 1, got {capacity}")
        self.host = host
        self.server_id = str(host.address)
        self.capacity = capacity
        self.initial_peers = initial_peers
        self.check_interval = check_interval
        self.check_timeout = check_timeout
        self.max_hints = max_hints
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.members: dict[int, MemberEntry] = {}
        # Node ids of ``members``, least recently seen first (an ordered
        # set).  Simulated time never runs backwards, so moving a member
        # to the end whenever it is seen keeps this sorted by ``last_seen``.
        self._recency: dict[int, None] = {}
        #: keyword -> node ids of members that published it (hint directory)
        self.hint_index: dict[str, set[int]] = {}
        self.hint_publishes = 0
        self.hint_queries = 0
        self._next_node_id = 0
        #: outstanding validity pings; context: the member's node id
        self.requests = PendingRequests(host)
        self.registrations_rejected = 0
        self.ping_timeouts = 0
        host.bind(m.PROTO_REGISTER, self._on_register)
        host.bind(m.PROTO_ANNOUNCE, self._on_announce)
        host.bind(m.PROTO_RESOLVE, self._on_resolve)
        host.bind(m.PROTO_PONG, self._on_pong)
        host.bind(m.PROTO_HINT_PUBLISH, self._on_hint_publish)
        host.bind(m.PROTO_HINT_QUERY, self._on_hint_query)
        if check_interval is not None:
            # Daemon timer: periodic housekeeping must not keep an
            # unbounded simulation run alive forever.
            self.host.sim.schedule_daemon(check_interval, self._run_validity_check)

    # -- protocol handlers ---------------------------------------------------

    def _on_register(self, packet: Packet) -> None:
        request: m.RegisterRequest = packet.payload
        if self.capacity is not None and len(self.members) >= self.capacity:
            self.registrations_rejected += 1
            self.tracer.record(
                self.host.sim.now, "liglo", "reject", server=self.server_id
            )
            reply = m.RegisterReply(
                token=request.token,
                accepted=False,
                reason=f"LIGLO {self.server_id} is at capacity ({self.capacity})",
            )
            self.host.send(packet.src, m.PROTO_REGISTER_REPLY, reply)
            return
        node_id = self._next_node_id
        self._next_node_id += 1
        bpid = BPID(self.server_id, node_id)
        now = self.host.sim.now
        peers = self._initial_peer_list()
        entry = MemberEntry(
            bpid=bpid,
            address=packet.src,
            online=True,
            registered_at=now,
            last_seen=now,
        )
        self.members[node_id] = entry
        self._mark_seen(entry)
        self.tracer.record(
            now, "liglo", "register", server=self.server_id, bpid=str(bpid)
        )
        reply = m.RegisterReply(
            token=request.token, accepted=True, bpid=bpid, peers=tuple(peers)
        )
        self.host.send(packet.src, m.PROTO_REGISTER_REPLY, reply)

    def _mark_seen(self, entry: MemberEntry) -> None:
        """Note a liveness signal: ``entry`` is online and the newest member."""
        entry.online = True
        entry.last_seen = self.host.sim.now
        node_id = entry.bpid.node_id
        self._recency.pop(node_id, None)
        self._recency[node_id] = None

    def _initial_peer_list(self) -> list[tuple[BPID, IPAddress]]:
        """Most recently seen online members, newest first.

        Members seen at the same instant (the host serves requests on
        several CPU threads, so this is the usual case) come out in
        ascending node id.  Only the newest members are looked at: the
        walk stops at the end of the tie group that fills the list.
        """
        if self.initial_peers <= 0:
            return []
        newest_first = (self.members[node_id] for node_id in reversed(self._recency))
        peers: list[MemberEntry] = []
        for _, tied in groupby(newest_first, key=lambda entry: entry.last_seen):
            peers.extend(
                sorted(
                    (entry for entry in tied if entry.online),
                    key=lambda entry: entry.bpid.node_id,
                )
            )
            if len(peers) >= self.initial_peers:
                break
        return [(entry.bpid, entry.address) for entry in peers[: self.initial_peers]]

    def _on_announce(self, packet: Packet) -> None:
        announce: m.Announce = packet.payload
        entry = self._member_for(announce.bpid)
        if entry is None:
            return  # not ours, or forgotten; the node must re-register
        entry.address = packet.src
        self._mark_seen(entry)
        self.tracer.record(
            self.host.sim.now,
            "liglo",
            "announce",
            bpid=str(announce.bpid),
            address=str(packet.src),
        )

    def _on_resolve(self, packet: Packet) -> None:
        request: m.ResolveRequest = packet.payload
        entry = self._member_for(request.bpid)
        if entry is None:
            reply = m.ResolveReply(
                token=request.token,
                bpid=request.bpid,
                address=None,
                online=False,
                known=False,
            )
        else:
            reply = m.ResolveReply(
                token=request.token,
                bpid=request.bpid,
                address=entry.address if entry.online else None,
                online=entry.online,
            )
        self.host.send(packet.src, m.PROTO_RESOLVE_REPLY, reply)

    def _on_pong(self, packet: Packet) -> None:
        pong: m.Pong = packet.payload
        ping = self.requests.settle(pong.token, "ping")
        if ping is None:
            return
        entry = self.members.get(ping.context)
        if entry is not None:
            self._mark_seen(entry)

    # -- keyword hint directory (super-peer routing) -----------------------------

    def _on_hint_publish(self, packet: Packet) -> None:
        publish: m.HintPublish = packet.payload
        entry = self._member_for(publish.bpid)
        if entry is None:
            return  # not ours, or forgotten; the node must re-register
        self.hint_publishes += 1
        for keyword in publish.keywords:
            self.hint_index.setdefault(keyword, set()).add(publish.bpid.node_id)
        # A publish is also a liveness signal, like an announce.
        entry.address = packet.src
        self._mark_seen(entry)
        self.tracer.record(
            self.host.sim.now,
            "liglo",
            "hint-publish",
            bpid=str(publish.bpid),
            keywords=len(publish.keywords),
        )

    def _on_hint_query(self, packet: Packet) -> None:
        request: m.HintQuery = packet.payload
        self.hint_queries += 1
        holders: list[tuple[BPID, IPAddress]] = []
        for node_id in sorted(self.hint_index.get(request.keyword, ())):
            entry = self.members.get(node_id)
            if entry is not None and entry.online:
                holders.append((entry.bpid, entry.address))
            if len(holders) >= self.max_hints:
                break
        reply = m.HintReply(request.token, request.keyword, tuple(holders))
        self.host.send(packet.src, m.PROTO_HINT_REPLY, reply)

    # -- validity checking ------------------------------------------------------

    def _run_validity_check(self) -> None:
        """Ping every supposedly-online member; silence means offline."""
        for node_id, entry in self.members.items():
            if entry.online:
                self._ping(node_id, entry.address)
        if self.check_interval is not None:
            self.host.sim.schedule_daemon(self.check_interval, self._run_validity_check)

    def _ping(self, node_id: int, address: IPAddress) -> None:
        self.requests.send(
            "ping",
            lambda token: self.host.send(address, m.PROTO_PING, m.Ping(token)),
            self.check_timeout,
            context=node_id,
            retry=False,
            on_timeout=lambda: self._ping_timed_out(node_id),
        )

    def _ping_timed_out(self, node_id: int) -> None:
        self.ping_timeouts += 1
        entry = self.members.get(node_id)
        if entry is not None:
            entry.online = False
            self.tracer.record(
                self.host.sim.now, "liglo", "mark-offline", bpid=str(entry.bpid)
            )

    # -- queries (for tests and operators) -----------------------------------------

    def member_count(self) -> int:
        return len(self.members)

    def stats(self) -> dict[str, int]:
        """Operational counters, including outstanding ping tokens."""
        return {
            "members": len(self.members),
            "online_members": sum(
                1 for entry in self.members.values() if entry.online
            ),
            "pending_pings": len(self.requests.pending("ping")),
            "ping_timeouts": self.ping_timeouts,
            "registrations_rejected": self.registrations_rejected,
            "hint_keywords": len(self.hint_index),
            "hint_publishes": self.hint_publishes,
            "hint_queries": self.hint_queries,
        }

    def lookup(self, bpid: BPID) -> MemberEntry | None:
        """Local (non-network) lookup of a member entry."""
        return self._member_for(bpid)

    def _member_for(self, bpid: BPID) -> MemberEntry | None:
        if bpid.liglo_id != self.server_id:
            return None
        return self.members.get(bpid.node_id)
