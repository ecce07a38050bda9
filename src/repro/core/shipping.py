"""Code-shipping vs. data-shipping: the paper's first future-work item.

Section 6: "our current implementation provides no optimization schemes
- basically, a node will always send its agent to the destination node
to process the data there.  We plan to make a node more intelligent by
allowing it to determine at runtime which strategy to adopt -
code-shipping or data-shipping."

This module implements that decision.  For each direct peer a
:class:`ShippingPolicy` chooses:

* **code** — ship the search agent (the paper's default): pays agent
  transmission + installation, moves only the matches;
* **data** — fetch the peer's sharable dataset once, cache it locally,
  and evaluate this and future queries against the cache: pays a large
  one-off transfer, then answers locally for free until the cache is
  invalidated.

Data-shipping amortizes: it wins when many queries will hit the same
peer's slowly-changing data; code-shipping wins for one-off queries over
big stores.  :class:`AdaptiveShippingPolicy` estimates both costs from
observed store sizes and the query count so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BestPeerError
from repro.net import codec as wire

CODE = "code"
DATA = "data"

PROTO_DATA_REQUEST = "bestpeer.data-request"
PROTO_DATA_REPLY = "bestpeer.data-reply"


@dataclass(frozen=True, slots=True)
class DataRequest:
    """Ask a peer for its sharable dataset (data-shipping)."""

    token: int


@dataclass(frozen=True, slots=True)
class DataReply:
    """A peer's full sharable dataset: (keywords, payload) pairs."""

    token: int
    objects: tuple[tuple[tuple[str, ...], bytes], ...]

    @property
    def total_bytes(self) -> int:
        return sum(len(payload) for _, payload in self.objects)


@dataclass
class PeerEstimate:
    """What a node believes about one peer, for the shipping decision."""

    #: estimated bytes of the peer's sharable data (0 = unknown)
    store_bytes: int = field(init=False, default=0)
    #: queries this node has issued that involved the peer
    queries_seen: int = field(init=False, default=0)
    #: does this node hold a live cached copy of the peer's data?
    cached: bool = field(init=False, default=False)


class ShippingPolicy:
    """Decides, per peer and per query, how to execute the search."""

    name = "abstract"

    def choose(self, estimate: PeerEstimate) -> str:
        """Return :data:`CODE` or :data:`DATA`."""
        raise NotImplementedError


class AlwaysCodePolicy(ShippingPolicy):
    """The paper's current implementation: always ship the agent."""

    name = "always-code"

    def choose(self, estimate: PeerEstimate) -> str:
        return CODE


class AlwaysDataPolicy(ShippingPolicy):
    """Always pull the data (degenerates to a mirroring client)."""

    name = "always-data"

    def choose(self, estimate: PeerEstimate) -> str:
        return DATA


#: typical serialized agent size (bytes) - state-only envelopes
AGENT_BYTES = 600
#: effective bandwidth (bytes/second), matching the LinkModel default
BANDWIDTH = 1_250_000.0
#: per-execution install/overhead cost at the peer (seconds)
INSTALL_TIME = 0.014
#: how many future queries to amortize a data transfer over
HORIZON = 10


class AdaptiveShippingPolicy(ShippingPolicy):
    """Cost-based runtime choice.

    Per query against one peer:

    * code cost  ≈ ``AGENT_BYTES / BANDWIDTH + INSTALL_TIME``
    * data cost  ≈ ``store_bytes / BANDWIDTH`` once, then ~0 from cache

    Data-shipping is chosen when the projected spend over the expected
    number of future queries (``HORIZON``) is lower - i.e. when
    ``store_bytes / BANDWIDTH < HORIZON * per-query code cost`` - and
    the store size is actually known.  A cached peer is always served
    from the cache.
    """

    name = "adaptive"

    def code_cost(self) -> float:
        """Estimated cost of one code-shipped query (seconds)."""
        return AGENT_BYTES / BANDWIDTH + INSTALL_TIME

    def data_cost(self, estimate: PeerEstimate) -> float:
        """Estimated one-off cost of pulling the peer's store (seconds)."""
        return estimate.store_bytes / BANDWIDTH

    def choose(self, estimate: PeerEstimate) -> str:
        if estimate.cached:
            return DATA
        if estimate.store_bytes <= 0:
            return CODE  # "in the face of ambiguity", ship the agent
        if self.data_cost(estimate) < HORIZON * self.code_cost():
            return DATA
        return CODE


#: every policy holds no state, so every node shares one of each
_POLICIES = {
    policy.name: policy
    for policy in (AlwaysCodePolicy(), AlwaysDataPolicy(), AdaptiveShippingPolicy())
}


def make_shipping_policy(name: str) -> ShippingPolicy:
    """The shared shipping policy of that name."""
    try:
        return _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise BestPeerError(
            f"unknown shipping policy {name!r}; known: {known}"
        ) from None


# -- compact wire registration (type id block 0x02xx) --------------------------

wire.register(
    DataRequest,
    0x0203,
    (("token", wire.I64),),
    sample=lambda: DataRequest(token=11),
)

# -- data-plane wire registration (type id block 0x10xx) -----------------------
#
# A DataReply carries a peer's whole sharable dataset — the single
# largest message in the system.  A store past the data plane's frame cap
# cannot be sent (WireEncodeError at the sender).

wire.register(
    DataReply,
    0x1005,
    (
        ("token", wire.I64),
        ("objects", wire.seq(wire.pair(wire.seq(wire.STR), wire.BYTES))),
    ),
    sample=lambda: DataReply(
        token=11,
        objects=((("music", "mp3"), b"notes"), (("news",), b"daily")),
    ),
    plane=wire.DATA,
)
