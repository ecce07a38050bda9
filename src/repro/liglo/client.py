"""Node-side LIGLO protocol: register, announce, resolve.

All operations are asynchronous (this is a discrete-event world): the
caller passes a callback, and the client correlates replies to requests
with tokens, handling timeouts for requests whose LIGLO never answers.
Register, resolve and hint requests share one token sequence and one
:class:`~repro.net.requests.PendingRequests` table.

With a :class:`~repro.util.retry.RetryPolicy` attached, a timed-out
register or resolve is re-sent (fresh token) after the policy's backoff
before the caller ever hears about it, and :meth:`announce_verified`
turns the fire-and-forget announce into a confirmed exchange — retry
until our LIGLO resolves us back, or surface
:class:`~repro.errors.LigloUnreachableError`.  Without a policy every
exchange is single-shot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from repro.errors import LigloError, LigloUnreachableError
from repro.ids import BPID
from repro.liglo import messages as m
from repro.net.address import IPAddress
from repro.net.message import Packet
from repro.net.network import Host
from repro.net.requests import PendingRequests
from repro.util.retry import RetryPolicy
from repro.util.tracing import NULL_TRACER, Tracer

#: How long to wait for a LIGLO reply before giving up (seconds).
TIMEOUT = 5.0
#: How long a super-peer hint fetch waits before the caller falls back to
#: a plain flood (seconds; kept well under any query quiet period).
HINT_TIMEOUT = 1.0
#: reply protocol -> the request family its replies settle
_REPLY_KINDS = {m.PROTO_RESOLVE_REPLY: "resolve", m.PROTO_HINT_REPLY: "hint"}


@dataclass(frozen=True, slots=True)
class RegistrationResult:
    """Outcome of a registration attempt delivered to the caller."""

    accepted: bool
    bpid: BPID | None = None
    peers: tuple[tuple[BPID, IPAddress], ...] = ()
    liglo_address: IPAddress | None = None
    reason: str = ""


class LigloClient:
    """One node's view of the LIGLO service."""

    def __init__(
        self,
        host: Host,
        tracer: Tracer | None = None,
        retry_policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ):
        self.host = host
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.bpid: BPID | None = None
        #: outstanding register / resolve / hint requests; context: the callback
        self.requests = PendingRequests(host, retry_policy, rng)
        host.bind(m.PROTO_REGISTER_REPLY, self._on_register_reply)
        host.bind(m.PROTO_RESOLVE_REPLY, self._on_reply)
        host.bind(m.PROTO_HINT_REPLY, self._on_reply)
        host.bind(m.PROTO_PING, self._on_ping)

    @property
    def retries(self) -> int:
        """Re-sends triggered by the retry policy (announce rounds included)."""
        return self.requests.retries

    def pending_counts(self) -> dict[str, int]:
        """Outstanding request tokens by kind (leak auditing)."""
        return {
            "registers": len(self.requests.pending("register")),
            "resolves": len(self.requests.pending("resolve")),
            "hints": len(self.requests.pending("hint")),
        }

    # -- registration -------------------------------------------------------------

    def register(
        self,
        liglo_address: IPAddress,
        callback: Callable[[RegistrationResult], None],
    ) -> None:
        """Ask one LIGLO server for a BPID; the callback gets the outcome.

        With a retry policy, a timed-out request is re-sent (fresh
        token) up to ``max_attempts`` times before the callback sees the
        failure.
        """

        def fail(reason: str) -> None:
            callback(RegistrationResult(accepted=False, reason=reason))

        self.requests.send(
            "register",
            lambda token: self.host.send(
                liglo_address, m.PROTO_REGISTER, m.RegisterRequest(token)
            ),
            TIMEOUT,
            context=callback,
            on_retry=lambda: self.tracer.bump("liglo", "register-retry"),
            on_offline=lambda: fail("host went offline during retry"),
            on_give_up=lambda: fail("registration timed out"),
        )

    def register_any(
        self,
        liglo_addresses: Sequence[IPAddress],
        callback: Callable[[RegistrationResult], None],
    ) -> None:
        """Try LIGLO servers in order until one accepts (or all refuse).

        This is the paper's fallback: "The node has to seek for another
        LIGLO for registration" when a server is at capacity.
        """
        if not liglo_addresses:
            raise LigloError("register_any needs at least one LIGLO address")
        remaining = list(liglo_addresses)

        def try_next(result: RegistrationResult | None) -> None:
            if result is not None and result.accepted:
                callback(result)
                return
            if not remaining:
                callback(
                    result
                    if result is not None
                    else RegistrationResult(accepted=False, reason="no LIGLO answered")
                )
                return
            self.register(remaining.pop(0), try_next)

        try_next(None)

    def _on_register_reply(self, packet: Packet) -> None:
        reply: m.RegisterReply = packet.payload
        entry = self.requests.settle(reply.token, "register")
        if entry is None:
            return  # arrived after timeout
        result = RegistrationResult(
            accepted=reply.accepted,
            bpid=reply.bpid,
            peers=reply.peers,
            liglo_address=packet.src,
            reason=reply.reason,
        )
        if reply.accepted:
            self.bpid = reply.bpid
            self.tracer.record(
                self.host.sim.now, "liglo", "registered", bpid=str(reply.bpid)
            )
        entry.context(result)

    # -- announcements -------------------------------------------------------------

    def announce(self) -> None:
        """Report our current IP to our LIGLO (call on every reconnect)."""
        if self.bpid is None:
            raise LigloError("cannot announce before registration")
        self.host.send(
            IPAddress(self.bpid.liglo_id), m.PROTO_ANNOUNCE, m.Announce(self.bpid)
        )

    def announce_verified(
        self,
        on_ok: Callable[[], None] | None = None,
        on_failed: Callable[[LigloUnreachableError], None] | None = None,
    ) -> None:
        """Announce and *confirm* it took, by resolving our own BPID.

        The announce message itself is fire-and-forget (no reply on the
        wire), so confirmation reuses the existing resolve exchange: our
        LIGLO answering with our current address proves the announce
        landed.  With a retry policy the announce+verify round repeats
        per the backoff schedule; once attempts run out,
        ``on_failed`` receives a
        :class:`~repro.errors.LigloUnreachableError` — or, with no
        ``on_failed``, the error raises inside the event loop and aborts
        the run (which is exactly what an unhandled outage should do in
        an experiment).
        """
        if self.bpid is None:
            raise LigloError("cannot announce before registration")
        self._verify_announce(0, on_ok, on_failed)

    def _verify_announce(
        self,
        failures: int,
        on_ok: Callable[[], None] | None,
        on_failed: Callable[[LigloUnreachableError], None] | None,
    ) -> None:
        if not self.host.online:
            return  # crashed mid-retry; the next rejoin restarts the exchange
        self.announce()
        assert self.bpid is not None

        def check(reply: m.ResolveReply | None) -> None:
            if (
                reply is not None
                and reply.online
                and reply.address == self.host.address
            ):
                self.tracer.record(
                    self.host.sim.now, "liglo", "announce-verified", bpid=str(self.bpid)
                )
                if on_ok is not None:
                    on_ok()
                return
            fails = failures + 1
            policy = self.requests.policy
            if policy is not None and policy.should_retry(fails):
                self.requests.retries += 1
                self.tracer.bump("liglo", "announce-retry")
                self.host.sim.schedule(
                    policy.delay(fails, self.requests.rng),
                    self._verify_announce,
                    fails,
                    on_ok,
                    on_failed,
                )
                return
            error = LigloUnreachableError(
                f"LIGLO {self.bpid.liglo_id} unreachable: announce unverified "
                f"after {fails} attempt(s)",
                attempts=fails,
            )
            if on_failed is not None:
                on_failed(error)
            else:
                raise error

        # Single-shot resolve: the verify loop owns the retry budget.
        self._resolve(self.bpid, check, retry=False)

    # -- resolution -----------------------------------------------------------------

    def resolve(
        self,
        bpid: BPID,
        callback: Callable[[m.ResolveReply | None], None],
    ) -> None:
        """Look up a peer's current IP at *its* registered LIGLO.

        The LIGLO's address is recoverable from the BPID itself ("p's
        registered LIGLO can be obtained from p's BPID").  The callback
        receives the reply, or None on timeout (after the retry policy's
        re-sends, when one is attached).
        """
        self._resolve(bpid, callback, retry=True)

    def _resolve(
        self,
        bpid: BPID,
        callback: Callable[[m.ResolveReply | None], None],
        retry: bool,
    ) -> None:
        fail = partial(callback, None)
        self.requests.send(
            "resolve",
            lambda token: self.host.send(
                IPAddress(bpid.liglo_id),
                m.PROTO_RESOLVE,
                m.ResolveRequest(token, bpid),
            ),
            TIMEOUT,
            context=callback,
            retry=retry,
            on_retry=lambda: self.tracer.bump("liglo", "resolve-retry"),
            on_offline=fail,
            on_give_up=fail,
        )

    def _on_reply(self, packet: Packet) -> None:
        """Hand a resolve or hint reply to the caller still waiting for it."""
        kind = _REPLY_KINDS[packet.protocol]
        entry = self.requests.settle(packet.payload.token, kind)
        if entry is not None:
            entry.context(packet.payload)

    # -- keyword hints (super-peer routing) ----------------------------------------

    def publish_hints(self, keywords: Sequence[str]) -> None:
        """Report keywords we share to our LIGLO's hint directory.

        Fire-and-forget, like :meth:`announce`: the directory is a
        routing accelerator, not ground truth — a lost publish only
        means queries for those keywords fall back to flooding.
        """
        if self.bpid is None:
            raise LigloError("cannot publish hints before registration")
        self.host.send(
            IPAddress(self.bpid.liglo_id),
            m.PROTO_HINT_PUBLISH,
            m.HintPublish(self.bpid, tuple(keywords)),
        )

    def fetch_hints(
        self,
        keyword: str,
        callback: Callable[[m.HintReply | None], None],
    ) -> None:
        """Ask our LIGLO which online members hold ``keyword``.

        Single-shot on purpose (no retry-policy re-sends): the caller
        owns the fallback — a plain flood — so on timeout the callback
        just sees None and floods.  It waits :data:`HINT_TIMEOUT`, much
        shorter than :data:`TIMEOUT`, to keep a LIGLO outage from
        stalling the query past its quiet period.
        """
        if self.bpid is None:
            raise LigloError("cannot fetch hints before registration")
        liglo_address = IPAddress(self.bpid.liglo_id)
        self.requests.send(
            "hint",
            lambda token: self.host.send(
                liglo_address, m.PROTO_HINT_QUERY, m.HintQuery(token, keyword)
            ),
            HINT_TIMEOUT,
            context=callback,
            retry=False,
            on_give_up=partial(callback, None),
        )

    # -- validity probes ---------------------------------------------------------------

    def _on_ping(self, packet: Packet) -> None:
        ping: m.Ping = packet.payload
        if self.bpid is not None:
            self.host.send(packet.src, m.PROTO_PONG, m.Pong(ping.token, self.bpid))
