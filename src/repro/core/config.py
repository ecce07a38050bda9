"""Node configuration.

Every knob the paper mentions is here: the per-node cap on direct peers
("Every BestPeer node has its own control over the maximum number of
direct peers it can have"), the reconfiguration strategy, agent TTL, the
result-return mode of Section 2, and the agent cost model; plus the
extensions' settings (retries, top-k, replication).  Values no
experiment varies are constants in the module that reads them: the
eight CPU threads of a host (``repro.net.network.CPU_THREADS``), the
fetch timeout (``repro.core.node.FETCH_TIMEOUT``) and the super-peer
hint timeout (``repro.liglo.client.HINT_TIMEOUT``).  Every search is
the paper's full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.costs import AgentCosts
from repro.agents.envelope import DEFAULT_TTL
from repro.agents.messages import MODE_DIRECT, MODE_METADATA
from repro.errors import BestPeerError
from repro.replication.policy import ReplicationPolicy
from repro.util.retry import RetryPolicy


@dataclass(frozen=True)
class BestPeerConfig:
    """Immutable per-node configuration."""

    #: k - the maximum number of directly connected peers
    max_direct_peers: int = 8
    #: agent lifetime in overlay hops
    ttl: int = DEFAULT_TTL
    #: "direct" ships payloads in answers; "metadata" defers to fetches
    result_mode: str = MODE_DIRECT
    #: routing strategy name (selection + forwarding; see
    #: repro.core.routing): maxcount | minhops | random | static |
    #: history | superpeer | costaware
    strategy: str = "maxcount"
    #: also search this node's own store when it issues a query
    search_own_store: bool = True
    #: shipping decision for smart queries: always-code | always-data |
    #: adaptive (the paper's future-work runtime choice)
    shipping_policy: str = "always-code"
    #: agent install/execution cost model
    agent_costs: AgentCosts = field(default_factory=AgentCosts)
    #: retry/backoff for LIGLO exchanges, fetches, and rejoin; None keeps
    #: the legacy single-attempt behaviour (healthy networks unchanged)
    retry_policy: RetryPolicy | None = None
    #: consecutive request timeouts before a direct peer turns suspect
    suspect_after: int = 3
    #: seed scope for retry jitter (combined with the node name)
    retry_seed: int = 0
    #: in-network top-k: queries return only the k best-scored answers,
    #: with dominated answers terminated at the hop that finds them
    #: (see repro.agents.topk).  None keeps the paper's exhaustive
    #: floods bit-identical.
    top_k: int | None = None
    #: replication and hot-object caching knobs (see
    #: repro.replication).  The default ``rf=1`` policy keeps the
    #: paper's single-copy behaviour bit-identical.
    replication: ReplicationPolicy = field(default_factory=ReplicationPolicy)

    def __post_init__(self) -> None:
        if self.suspect_after < 1:
            raise BestPeerError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.max_direct_peers < 1:
            raise BestPeerError(
                f"max_direct_peers must be >= 1, got {self.max_direct_peers}"
            )
        if self.ttl < 1:
            raise BestPeerError(f"ttl must be >= 1, got {self.ttl}")
        if self.result_mode not in (MODE_DIRECT, MODE_METADATA):
            raise BestPeerError(f"unknown result mode {self.result_mode!r}")
        if self.top_k is not None and not 1 <= self.top_k <= 0xFFFF:
            raise BestPeerError(
                f"top_k must be in [1, 65535] or None, got {self.top_k}"
            )
