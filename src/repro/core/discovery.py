"""Offline network discovery: agents that map who shares what.

Section 3.1: "the use of agents allows BestPeer nodes to collect
information (e.g., what files/content are sharable, statistics, etc.)
on the entire BestPeer network, and this can be done offline.  This
allows a node to be better equipped to determine who should be its
directly connected peers or who can provide it better service."

A :class:`DiscoveryAgent` floods like a query agent but, instead of
matching a keyword, summarizes each visited host's sharable store — a
keyword histogram, object count, total bytes — and sends the
:class:`ContentReport` straight back.  Reports accumulate in the
initiator's :class:`KnowledgeBase`, which then powers

* :class:`KnowledgeStrategy` — a reconfiguration strategy that ranks
  peers by how well their content matches the node's *interest profile*
  (expected future queries), rather than by the single most recent
  query's answers; and
* the shipping estimates of :mod:`repro.core.shipping` (store sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.agents.agent import Agent
from repro.core.routing import PeerObservation, RoutingStrategy
from repro.errors import BestPeerError
from repro.ids import BPID
from repro.net import codec as wire
from repro.net.address import IPAddress
from repro.storm.objects import normalize_keyword

PROTO_DISCOVERY_REPORT = "bestpeer.discovery.report"

#: cap on how many keyword counts one report carries (wire economy)
MAX_REPORT_KEYWORDS = 64


@dataclass(frozen=True, slots=True)
class ContentReport:
    """One host's content summary, as collected by a discovery agent."""

    responder: BPID
    responder_address: IPAddress
    hops: int
    object_count: int
    total_bytes: int
    #: (keyword, number of objects tagged with it), most frequent first
    keyword_counts: tuple[tuple[str, int], ...]

    def count_for(self, keyword: str) -> int:
        """Objects this host shares under ``keyword`` (0 if unreported)."""
        needle = normalize_keyword(keyword)
        for reported, count in self.keyword_counts:
            if reported == needle:
                return count
        return 0


class DiscoveryAgent(Agent):
    """Summarize each visited host's sharable store and report home.

    The default below is a literal (not ``MAX_REPORT_KEYWORDS``) on
    purpose: a shipped class's source must be self-contained, and
    defaults evaluate at class-definition time in the destination's
    namespace.
    """

    def __init__(self, max_keywords: int = 64):
        self.max_keywords = max_keywords

    def execute(self, context) -> None:
        from repro.core.discovery import ContentReport, PROTO_DISCOVERY_REPORT

        storm = context.storm
        counts: dict[str, int] = {}
        total_bytes = 0
        examined = 0
        for _rid, obj in storm.scan():
            examined += 1
            total_bytes += obj.size
            for keyword in obj.keywords:
                counts[keyword] = counts.get(keyword, 0) + 1
        # Summarizing costs a full pass over the store.
        result = storm.search_scan("")  # charge identical I/O behaviour
        context.charge_search(result)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        report = ContentReport(
            responder=context.host_id,
            responder_address=context.host_address,
            hops=context.hops,
            object_count=examined,
            total_bytes=total_bytes,
            keyword_counts=tuple(ranked[: self.max_keywords]),
        )
        context.send(context.initiator_address, PROTO_DISCOVERY_REPORT, report)


@dataclass
class KnowledgeBase:
    """What one node has learned about the network's content."""

    reports: dict[BPID, ContentReport] = field(init=False, default_factory=dict)
    received_at: dict[BPID, float] = field(init=False, default_factory=dict)

    def record(self, report: ContentReport, now: float) -> None:
        self.reports[report.responder] = report
        self.received_at[report.responder] = now

    def expected_answers(self, bpid: BPID, profile: Sequence[str]) -> int:
        """How many answers ``bpid`` should yield for the profile keywords."""
        report = self.reports.get(bpid)
        if report is None:
            return 0
        return sum(report.count_for(keyword) for keyword in profile)

    def best_providers(self, profile: Sequence[str], k: int) -> list[BPID]:
        """The ``k`` known hosts with the most profile-matching content."""
        ranked = sorted(
            self.reports,
            key=lambda bpid: (-self.expected_answers(bpid, profile), str(bpid)),
        )
        return ranked[:k]

    def __len__(self) -> int:
        return len(self.reports)


class KnowledgeStrategy(RoutingStrategy):
    """Reconfigure using discovered content, not just the last query.

    Candidates are ranked by the knowledge base's expected answers for
    the node's interest ``profile``; the most recent query's observed
    answers break ties (and carry candidates the knowledge base has not
    heard of yet).
    """

    name = "knowledge"

    def __init__(self, knowledge: KnowledgeBase, profile: Sequence[str]):
        if not profile:
            raise BestPeerError("KnowledgeStrategy needs a non-empty profile")
        self.knowledge = knowledge
        self.profile = [normalize_keyword(keyword) for keyword in profile]

    def select(
        self, candidates: Sequence[PeerObservation], k: int
    ) -> list[PeerObservation]:
        ranked = sorted(
            candidates,
            key=lambda obs: (
                -self.knowledge.expected_answers(obs.bpid, self.profile),
                -obs.answers,
                not obs.is_current,
                str(obs.bpid),
            ),
        )
        return ranked[:k]


# -- compact wire registration (type id block 0x02xx) --------------------------

wire.register(
    ContentReport,
    0x0204,
    (
        ("responder", wire.BPID_CODEC),
        ("responder_address", wire.IPADDR_CODEC),
        ("hops", wire.U32),
        ("object_count", wire.I64),
        ("total_bytes", wire.I64),
        ("keyword_counts", wire.seq(wire.pair(wire.STR, wire.I64))),
    ),
    sample=lambda: ContentReport(
        responder=BPID("10.0.0.1", 7),
        responder_address=IPAddress("10.0.3.4"),
        hops=2,
        object_count=120,
        total_bytes=61_440,
        keyword_counts=(("music", 40), ("video", 12)),
    ),
)
