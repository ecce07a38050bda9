"""One table of outstanding tokened requests per protocol endpoint.

Everything in BestPeer that is not a flooded agent is a tokened
request/reply: send a frame under a fresh token and arm a timer; the
reply settles the token, or the timer expires it and the owner's
:class:`~repro.util.retry.RetryPolicy` may re-send (new token) after a
jittered backoff.  :class:`PendingRequests` is that ladder, written once;
a family's differences ride on its :class:`PendingRequest` as values and
callables, and ``kind`` only partitions the table.

Settling does *not* cancel the expiry timer — the dead timer fires later
and finds nothing, and simulated timelines count on that event — so the
entry comes back with its ``timer`` for the families that do cancel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.util.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Host
    from repro.sim.kernel import Timer


def _nothing() -> None:
    """The hook a family leaves out."""


def _never() -> bool:
    return False


@dataclass(slots=True, eq=False)
class PendingRequest:
    """One exchange awaiting its reply, across every re-send of it."""

    #: which of the owner's request families this is
    kind: str
    #: sends the request frame under the given (fresh) token
    transmit: Callable[[int], None]
    #: seconds to wait for the reply to each send
    timeout: float
    #: whatever the family's reply handler needs back
    context: Any = None
    #: runs at every expiry, before the retry decision
    on_timeout: Callable[[], None] = _nothing
    #: False: single-shot, whatever the owner's policy says
    retry: bool = True
    #: true once nobody wants the reply: asked at expiry and again before
    #: a re-send, and an abandoned request stops without a word
    abandoned: Callable[[], bool] = _never
    #: runs when a re-send has been decided, before its backoff
    on_retry: Callable[[], None] = _nothing
    #: runs in place of a re-send whose host went offline meanwhile
    on_offline: Callable[[], None] = _nothing
    #: runs at the expiry that is not retried
    on_give_up: Callable[[], None] = _nothing
    #: sends that have timed out so far
    failures: int = 0
    #: expiry timer of the send in flight
    timer: "Timer | None" = None


class PendingRequests:
    """Token counter, token table, expiry timers and retry schedule."""

    __slots__ = ("host", "policy", "rng", "_next_token", "_entries", "retries")

    def __init__(
        self,
        host: "Host",
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ):
        self.host = host
        self.policy = policy
        self.rng = rng
        self._next_token = 0
        self._entries: dict[int, PendingRequest] = {}
        #: re-sends triggered by the retry policy
        self.retries = 0

    def send(
        self, kind: str, transmit: Callable[[int], None], timeout: float, **hooks: Any
    ) -> None:
        """Start an exchange (``hooks``: :class:`PendingRequest`'s other fields).

        If the transmit raises (an offline host cannot send) the entry
        is withdrawn again, so nothing leaks, and the caller gets the error.
        """
        self._send(PendingRequest(kind, transmit, timeout, **hooks))

    def _send(self, entry: PendingRequest) -> None:
        token = self._next_token
        self._next_token = token + 1
        entry.timer = self.host.sim.schedule(entry.timeout, self.expire, token)
        self._entries[token] = entry
        try:
            entry.transmit(token)
        except BaseException:
            del self._entries[token]
            entry.timer.cancel()
            raise

    def settle(self, token: int, kind: str) -> PendingRequest | None:
        """Take out the entry a reply of ``kind`` answers.

        None when the token is unknown (a late or forged reply) or is
        another family's.  The expiry timer is left running.
        """
        entry = self._entries.get(token)
        if entry is None or entry.kind != kind:
            return None
        del self._entries[token]
        return entry

    def expire(self, token: int) -> None:
        """The reply to ``token`` never came (no-op once settled)."""
        entry = self._entries.pop(token, None)
        if entry is None:
            return
        entry.failures += 1
        entry.on_timeout()
        if entry.abandoned():
            return
        policy = self.policy
        if entry.retry and policy is not None and policy.should_retry(entry.failures):
            self.retries += 1
            entry.on_retry()
            self.host.sim.schedule(
                policy.delay(entry.failures, self.rng), self._resend, entry
            )
        else:
            entry.on_give_up()

    def _resend(self, entry: PendingRequest) -> None:
        if entry.abandoned():
            return
        if self.host.online:
            self._send(entry)
        else:
            entry.on_offline()

    def pending(self, kind: str) -> dict[int, PendingRequest]:
        """Outstanding entries of one family, by token (leak auditing)."""
        return {
            token: entry for token, entry in self._entries.items() if entry.kind == kind
        }
