"""A LIGLO name server on real sockets.

The live counterpart of :mod:`repro.liglo`: a fixed TCP endpoint that
issues BPIDs, remembers each member's current address, answers resolve
requests, and hands newcomers an initial peer list.  LivePeers can
register with it before wiring into the overlay, which makes the live
identity story identical to the simulated one: the BPID, not the
(host, port), is who a peer *is*.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.ids import BPID
from repro.live.transport import LiveAddress, LiveEndpoint

PROTO_REGISTER = "live.liglo.register"
PROTO_REGISTER_REPLY = "live.liglo.register.reply"
PROTO_ANNOUNCE = "live.liglo.announce"
PROTO_RESOLVE = "live.liglo.resolve"
PROTO_RESOLVE_REPLY = "live.liglo.resolve.reply"

DEFAULT_INITIAL_PEERS = 5


class LiveLigloServer:
    """BPID issuance and address tracking over TCP."""

    def __init__(
        self,
        port: int = 0,
        capacity: int | None = None,
        initial_peers: int = DEFAULT_INITIAL_PEERS,
    ):
        self.endpoint = LiveEndpoint(port=port)
        self.capacity = capacity
        self.initial_peers = initial_peers
        self.server_id = f"liglo@{self.endpoint.address[0]}:{self.endpoint.address[1]}"
        self._lock = threading.Lock()
        self._members: dict[int, tuple[BPID, LiveAddress]] = {}
        self._next_node_id = 0
        self.registrations_rejected = 0
        self.endpoint.bind(PROTO_REGISTER, self._on_register)
        self.endpoint.bind(PROTO_ANNOUNCE, self._on_announce)
        self.endpoint.bind(PROTO_RESOLVE, self._on_resolve)

    @property
    def address(self) -> LiveAddress:
        return self.endpoint.address

    def member_count(self) -> int:
        with self._lock:
            return len(self._members)

    # -- protocol ------------------------------------------------------------------

    def _on_register(self, src: LiveAddress, payload: Any) -> None:
        token, member_address = payload
        member_address = tuple(member_address)
        with self._lock:
            if self.capacity is not None and len(self._members) >= self.capacity:
                self.registrations_rejected += 1
                reply = (token, False, None, (), f"{self.server_id} is at capacity")
            else:
                node_id = self._next_node_id
                self._next_node_id += 1
                bpid = BPID(self.server_id, node_id)
                peers = tuple(
                    (member_bpid, address)
                    for member_bpid, address in list(self._members.values())[
                        -self.initial_peers :
                    ]
                )
                self._members[node_id] = (bpid, member_address)
                reply = (token, True, bpid, peers, "")
        self.endpoint.try_send(tuple(src), PROTO_REGISTER_REPLY, reply)

    def _on_announce(self, _src: LiveAddress, payload: Any) -> None:
        bpid, address = payload
        with self._lock:
            entry = self._members.get(bpid.node_id)
            if entry is not None and entry[0] == bpid:
                self._members[bpid.node_id] = (bpid, tuple(address))

    def _on_resolve(self, src: LiveAddress, payload: Any) -> None:
        token, bpid = payload
        with self._lock:
            entry = self._members.get(bpid.node_id)
            if entry is not None and entry[0] == bpid:
                reply = (token, bpid, entry[1], True)
            else:
                reply = (token, bpid, None, False)
        self.endpoint.try_send(tuple(src), PROTO_RESOLVE_REPLY, reply)

    def close(self) -> None:
        self.endpoint.close()

    def __enter__(self) -> "LiveLigloServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LiveLigloClient:
    """Blocking client helpers for LivePeers (threads make this easy)."""

    def __init__(self, endpoint: LiveEndpoint):
        self.endpoint = endpoint
        self._lock = threading.Lock()
        self._next_token = 0
        self._register_results: dict[int, Any] = {}
        self._resolve_results: dict[int, Any] = {}
        self._condition = threading.Condition(self._lock)
        endpoint.bind(PROTO_REGISTER_REPLY, self._on_register_reply)
        endpoint.bind(PROTO_RESOLVE_REPLY, self._on_resolve_reply)

    def register(
        self, liglo: LiveAddress, timeout: float = 5.0
    ) -> tuple[BPID | None, tuple, str]:
        """Register; returns (bpid, initial peers, reason) — bpid None on
        rejection or timeout."""
        with self._lock:
            token = self._next_token
            self._next_token += 1
        self.endpoint.try_send(
            tuple(liglo), PROTO_REGISTER, (token, self.endpoint.address)
        )
        with self._condition:
            if not self._condition.wait_for(
                lambda: token in self._register_results, timeout=timeout
            ):
                return None, (), "registration timed out"
            _token, accepted, bpid, peers, reason = self._register_results.pop(token)
        if not accepted:
            return None, (), reason
        return bpid, peers, ""

    def announce(self, liglo: LiveAddress, bpid: BPID) -> None:
        self.endpoint.try_send(
            tuple(liglo), PROTO_ANNOUNCE, (bpid, self.endpoint.address)
        )

    def resolve(
        self, liglo: LiveAddress, bpid: BPID, timeout: float = 5.0
    ) -> LiveAddress | None:
        with self._lock:
            token = self._next_token
            self._next_token += 1
        self.endpoint.try_send(tuple(liglo), PROTO_RESOLVE, (token, bpid))
        with self._condition:
            if not self._condition.wait_for(
                lambda: token in self._resolve_results, timeout=timeout
            ):
                return None
            _token, _bpid, address, known = self._resolve_results.pop(token)
        return tuple(address) if known and address is not None else None

    def _on_register_reply(self, _src: LiveAddress, payload: Any) -> None:
        with self._condition:
            self._register_results[payload[0]] = payload
            self._condition.notify_all()

    def _on_resolve_reply(self, _src: LiveAddress, payload: Any) -> None:
        with self._condition:
            self._resolve_results[payload[0]] = payload
            self._condition.notify_all()
