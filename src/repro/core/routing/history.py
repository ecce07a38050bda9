"""Query-history routing: route by past per-keyword hit rates.

The query-mining idea (arxiv 1109.5679): a peer that answered queries
for a keyword before will likely answer them again, so learn a
per-``(keyword, peer)`` hit-rate EWMA from every finished query's
:class:`~repro.core.query.QueryHandle` outcome and

* **select** historically-productive peers into the direct-peer set
  first (falling back to the MaxCount ordering where history is silent),
* **forward** floods to historically-productive peers first.

Scores live per strategy instance, i.e. per node: this is each node's
private query log, not shared state.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.routing.base import (
    PeerObservation,
    RoutingStrategy,
    register_strategy,
)
from repro.ids import BPID
from repro.net.address import IPAddress
from repro.storm.objects import normalize_keyword

#: EWMA weight of the newest observation.
ALPHA = 0.3


@register_strategy
class QueryHistoryStrategy(RoutingStrategy):
    """Per-keyword hit-rate EWMA over observed query outcomes."""

    name = "history"

    def __init__(self):
        #: normalized keyword -> peer -> hit-rate EWMA in [0, 1]
        self._scores: dict[str, dict[BPID, float]] = {}

    # -- learning --------------------------------------------------------------

    def observe(
        self, keyword: str, observations: Sequence[PeerObservation]
    ) -> None:
        table = self._scores.setdefault(normalize_keyword(keyword), {})
        for obs in observations:
            hit = 1.0 if obs.answers > 0 else 0.0
            previous = table.get(obs.bpid)
            if previous is None:
                table[obs.bpid] = hit
            else:
                table[obs.bpid] = previous + ALPHA * (hit - previous)

    def score(self, keyword: str, bpid: BPID) -> float:
        """Learned hit rate for ``(keyword, peer)`` (0.0 when unseen)."""
        return self._scores.get(normalize_keyword(keyword), {}).get(bpid, 0.0)

    # -- selection -------------------------------------------------------------

    def select_for(
        self,
        candidates: Sequence[PeerObservation],
        k: int,
        keyword: str | None = None,
    ) -> list[PeerObservation]:
        table = (
            self._scores.get(normalize_keyword(keyword), {})
            if keyword is not None
            else {}
        )
        ranked = sorted(
            candidates,
            key=lambda obs: (
                -table.get(obs.bpid, 0.0),
                -obs.answers,
                not obs.is_current,
                str(obs.bpid),
            ),
        )
        return ranked[:k]

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        return self.select_for(candidates, k)

    # -- forwarding ------------------------------------------------------------

    def flood_targets(
        self, keyword: str | None, peers: Sequence
    ) -> list[IPAddress]:
        live = [peer for peer in peers if not peer.suspect]
        table = (
            self._scores.get(normalize_keyword(keyword), {})
            if keyword is not None
            else {}
        )
        # Stable sort on -score: unscored peers keep table order, so an
        # empty history reproduces the default fan-out exactly.
        order = sorted(
            range(len(live)), key=lambda i: (-table.get(live[i].bpid, 0.0), i)
        )
        return [live[i].address for i in order]
