"""Per-peer liveness: suspicion, degradation, and leak-free pending state."""

import pytest

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.core.peers import PeerTable
from repro.core.query import QueryHandle
from repro.errors import LigloUnreachableError
from repro.ids import BPID, QueryId
from repro.net.address import IPAddress
from repro.topology.builders import line, star
from repro.util.retry import RetryPolicy

POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.25, multiplier=2.0, max_delay=1.0, jitter=0.0
)


def bpid(n):
    return BPID("liglo", n)


def addr(n):
    return IPAddress(f"10.0.0.{n}")


class TestPeerTableLiveness:
    def test_becomes_suspect_at_threshold(self):
        table = PeerTable(max_peers=3)
        table.add(bpid(1), addr(1))
        assert not table.note_timeout(bpid(1), threshold=2)
        assert table.note_timeout(bpid(1), threshold=2)  # became suspect NOW
        assert not table.note_timeout(bpid(1), threshold=2)  # already suspect
        assert table.suspect_bpids() == [bpid(1)]

    def test_unknown_peer_ignored(self):
        table = PeerTable(max_peers=3)
        assert not table.note_timeout(bpid(9), threshold=1)

    def test_note_alive_clears_suspicion(self):
        table = PeerTable(max_peers=3)
        table.add(bpid(1), addr(1))
        table.note_timeout(bpid(1), threshold=1)
        assert table.suspect_bpids() == [bpid(1)]
        table.note_alive(bpid(1), now=7.0)
        assert table.suspect_bpids() == []
        assert table.get(bpid(1)).timeouts == 0
        assert table.get(bpid(1)).last_seen == 7.0

    def test_live_views_exclude_suspects(self):
        table = PeerTable(max_peers=3)
        table.add(bpid(1), addr(1))
        table.add(bpid(2), addr(2))
        table.note_timeout(bpid(1), threshold=1)
        assert table.live_addresses() == [addr(2)]
        assert [entry.bpid for entry in table.live_entries()] == [bpid(2)]
        # The full views still contain everything.
        assert len(table.addresses()) == 2

    def test_healthy_live_views_equal_full_views(self):
        table = PeerTable(max_peers=3)
        table.add(bpid(1), addr(1))
        table.add(bpid(2), addr(2))
        assert table.live_addresses() == table.addresses()

    def test_discard_is_silent_for_unknown(self):
        table = PeerTable(max_peers=3)
        table.add(bpid(1), addr(1))
        table.discard(bpid(1))
        table.discard(bpid(1))
        assert bpid(1) not in table


class TestQueryDegradation:
    def test_mark_degraded_counts_causes(self):
        handle = QueryHandle(QueryId(bpid(0), 0), "k", issued_at=0.0)
        assert not handle.degraded
        handle.mark_degraded("data-timeout")
        handle.mark_degraded("data-timeout")
        handle.mark_degraded("suspect-peer-skipped")
        assert handle.degraded
        assert handle.drop_causes == {
            "data-timeout": 2,
            "suspect-peer-skipped": 1,
        }


def faulted_network(nodes=4, topology=None, suspect_after=1, **overrides):
    config = BestPeerConfig(
        max_direct_peers=3,
        retry_policy=POLICY,
        suspect_after=suspect_after,
        **overrides,
    )
    return build_network(
        nodes,
        config=config,
        topology=topology if topology is not None else star(nodes),
    )


class TestSuspicionEndToEnd:
    def test_data_timeouts_make_dead_peer_suspect(self):
        # The flood itself is fire-and-forget; suspicion is charged by
        # the request/reply paths.  Ship data requests at every peer and
        # let one die silently.
        net = faulted_network(shipping_policy="always-data")
        for node in net.nodes[1:]:
            node.share(["needle"], b"x" * 16)
        base = net.base
        net.nodes[1].host.disconnect()
        first = base.smart_query("needle")
        net.sim.run()
        assert net.nodes[1].bpid in base.peers.suspect_bpids()
        assert first.degraded
        assert first.drop_causes.get("data-timeout", 0) >= 1
        # Live peers still answered: partial results, not none.
        assert first.network_answer_count == 2

    def test_next_query_skips_the_suspect(self):
        net = faulted_network(shipping_policy="always-data")
        for node in net.nodes[1:]:
            node.share(["needle"], b"x" * 16)
        base = net.base
        net.nodes[1].host.disconnect()
        first = base.smart_query("needle")
        net.sim.run()
        sent_before = base.host.messages_sent
        second = base.smart_query("needle")
        net.sim.run()
        assert second.degraded
        assert second.drop_causes.get("suspect-peer-skipped", 0) == 1
        assert second.network_answer_count == 2
        # No packet was wasted on the corpse (2 live data exchanges,
        # answered from cache after the first round).
        assert base.statistics()["request_timeouts"] == first.drop_causes.get(
            "data-timeout"
        ) + POLICY.max_attempts - 1

    def test_reconfigure_evicts_suspects(self):
        # Eviction-and-backfill: the strategy never re-selects a suspect,
        # so finishing a query drops it from the table entirely.
        net = faulted_network()
        base = net.base
        victim = net.nodes[1]
        base.peers.note_timeout(victim.bpid, threshold=1)
        assert base.peers.suspect_bpids() == [victim.bpid]
        handle = base.issue_query("needle", auto_finish_after=1.0)
        net.sim.run()
        assert handle.finished
        assert victim.bpid not in base.peers
        assert base.peers.suspect_bpids() == []

    def test_answer_clears_suspicion_before_reconfigure(self):
        net = faulted_network(shipping_policy="always-data")
        node = net.nodes[1]
        node.share(["needle"], b"x" * 16)
        base = net.base
        base.peers.note_timeout(node.bpid, threshold=1)
        assert base.peers.suspect_bpids() == [node.bpid]
        # The suspect proves it is alive (out of band); it competes again.
        base.peers.note_alive(node.bpid, net.sim.now)
        assert base.peers.suspect_bpids() == []
        handle = base.smart_query("needle")
        net.sim.run()
        assert node.bpid in {a.responder for a in handle.answers}

    def test_healthy_queries_never_degraded(self):
        net = faulted_network()
        for node in net.nodes[1:]:
            node.share(["needle"], b"x" * 16)
        handle = net.base.issue_query("needle", auto_finish_after=2.0)
        net.sim.run()
        assert not handle.degraded
        assert handle.drop_causes == {}
        assert handle.network_answer_count == len(net.nodes) - 1


class TestPendingStateDrains:
    def test_statistics_expose_outstanding_tokens(self):
        net = faulted_network()
        stats = net.base.statistics()
        for key in (
            "pending_fetches",
            "pending_actives",
            "pending_data",
            "pending_liglo",
            "suspect_peers",
            "queries_degraded",
            "request_timeouts",
            "request_retries",
            "liglo_retries",
        ):
            assert key in stats

    def test_fetch_timeout_drains_pending(self):
        net = faulted_network(topology=line(4))
        base = net.base
        ghost = net.nodes[3]
        rid = ghost.share(["needle"], b"payload" * 4)
        ghost.host.disconnect()
        replies = []
        base.fetch(ghost.host.address or addr(9), rid, replies.append)
        net.sim.run()
        assert replies == [None]
        stats = base.statistics()
        assert stats["pending_fetches"] == 0
        assert stats["request_timeouts"] >= 1
        assert stats["request_retries"] >= 1  # the policy re-sent once

    def test_all_pending_state_drains_after_faulted_run(self):
        net = faulted_network()
        for node in net.nodes[1:]:
            node.share(["needle"], b"x" * 16)
        net.nodes[2].host.disconnect()
        handle = net.base.issue_query("needle", auto_finish_after=2.0)
        net.sim.run()
        assert handle.finished
        for node in net.nodes:
            if not node.host.online:
                continue
            stats = node.statistics()
            assert stats["pending_fetches"] == 0
            assert stats["pending_actives"] == 0
            assert stats["pending_data"] == 0
            assert stats["pending_liglo"] == 0


class TestRejoinRetry:
    def test_rejoin_with_dead_liglo_surfaces_typed_error(self):
        net = faulted_network()
        node = net.nodes[1]
        node.leave()
        net.liglo_servers[0].host.suspend()
        errors = []
        node.rejoin(on_failed=errors.append)
        net.sim.run()
        (error,) = errors
        assert isinstance(error, LigloUnreachableError)
        assert error.attempts == POLICY.max_attempts

    def test_rejoin_without_handler_aborts_run(self):
        net = faulted_network()
        node = net.nodes[1]
        node.leave()
        net.liglo_servers[0].host.suspend()
        node.rejoin()
        with pytest.raises(LigloUnreachableError):
            net.sim.run()

    def test_rejoin_succeeds_once_liglo_returns(self):
        net = faulted_network()
        node = net.nodes[1]
        node.leave()
        net.liglo_servers[0].host.suspend()
        net.sim.schedule(1.0, net.liglo_servers[0].host.resume)
        refreshed = []
        node.rejoin(on_refreshed=lambda: refreshed.append(True))
        net.sim.run()
        assert refreshed == [True]
        assert node.host.online

    def test_rejoin_keeps_silent_peers_as_suspects(self):
        # A peer that cannot be resolved during rejoin is kept (the
        # silence may be the LIGLO's fault) but charged a timeout.
        net = faulted_network(suspect_after=1)
        node = net.nodes[1]
        peer_count = len(node.peers)
        assert peer_count >= 1
        victim = net.nodes[0]
        node.leave()
        victim.leave()  # now unresolvable: its LIGLO entry goes offline
        node.rejoin()
        net.sim.run()
        assert len(node.peers) == peer_count  # kept, not dropped


class TestSuspicionReplicationInterplay:
    """Regression: eviction must not make a rejoined peer unplaceable.

    A peer that answered queries, then went silent long enough to be
    suspected, discarded, and backfilled, used to vanish from the
    owner's world entirely — after it rejoined (under a fresh IP, per
    Section 2), no new share could ever select it as a replica holder.
    Two mechanisms combine to fix that: the replication manager keeps a
    bounded last-seen ledger fed by answers (so the peer table
    forgetting the peer does not erase it), and an offer that times out
    against the ledger's stale address is re-sent once to the address
    the peer's registered LIGLO currently reports.
    """

    def test_evicted_and_backfilled_peer_is_rediscoverable_as_holder(self):
        from repro.replication import ReplicationPolicy

        net = faulted_network(
            nodes=4,
            topology=line(4),
            strategy="maxcount",
            replication=ReplicationPolicy(rf=4),
        )
        owner, peer, backfill = net.nodes[1], net.nodes[2], net.nodes[3]

        # The peer proves itself by answering one of the owner's queries,
        # which feeds the replication manager's last-seen ledger.
        peer.share(["kw"], b"proof-of-life")
        net.sim.run()
        handle = owner.issue_query("kw")
        net.sim.run()
        owner.finish_query(handle)
        assert handle.distinct_answer_count == 1

        # Silence: the peer is suspected, evicted, and backfilled.
        assert owner.peers.note_timeout(peer.bpid, threshold=1)
        owner.peers.discard(peer.bpid)
        if backfill.bpid not in owner.peers:
            owner.peers.add(backfill.bpid, backfill.host.address)
        assert peer.bpid not in owner.peers

        # The peer bounces and reconnects under a fresh IP; the owner's
        # table still does not know it, and the ledger address is stale.
        old_address = peer.host.address
        peer.leave()
        peer.rejoin()
        net.sim.run()
        assert peer.bpid not in owner.peers
        assert peer.host.address != old_address

        # A fresh share must still be able to place a copy on it: the
        # stale-address offer times out (one charged timeout), the LIGLO
        # resolve finds the new IP, and the re-offer lands.
        rid = owner.share(["fresh"], b"fresh-content")
        net.sim.run()
        assert owner.request_timeouts["replica"] == 1
        assert peer.bpid in owner.replication.holders_of(rid)
        assert peer.replication.replicas_held >= 1


class TestAnswerFramesFeedTheReplicationLedger:
    """An answer-shaped frame reaching the issuer — a plain answer or a
    top-k survivor frame — marks its responder alive in the replication
    manager's last-seen ledger; a top-k digest (a hop whose every match
    was dominated) does not."""

    @staticmethod
    def _frame(kind, handle, responder):
        from repro.agents.messages import AnswerItem, AnswerMessage
        from repro.agents.topk import ScoredAnswer, ScoredItem, TopKDigest, TopKEntry
        from repro.storm.heapfile import RecordId

        rid = RecordId(0, 0)
        header = dict(
            query_id=handle.query_id,
            responder=responder.bpid,
            responder_address=responder.host.address,
            hops=1,
        )
        if kind == "answer":
            item = AnswerItem(rid=rid, keywords=("k",), size=1, payload=b"x")
            return AnswerMessage(**header, items=(item,))
        if kind == "scored":
            item = ScoredItem(rid=rid, keywords=("k",), size=1, score=1.0, payload=b"x")
            return ScoredAnswer(**header, items=(item,))
        entry = TopKEntry(score=1.0, holder=responder.bpid, rid=rid)
        return TopKDigest(**header, k=2, entries=(entry,), dominated_dropped=1)

    @pytest.mark.parametrize(
        "kind, marks_alive", [("answer", True), ("scored", True), ("digest", False)]
    )
    def test_frame_reaching_the_issuer(self, monkeypatch, kind, marks_alive):
        from repro.agents.engine import PROTO_ANSWER

        net = build_network(2, config=BestPeerConfig(), topology=line(2))
        base, responder = net.base, net.nodes[1]
        handle = base.issue_query("nothing-stored")
        net.sim.run()
        noted = []
        monkeypatch.setattr(
            base.replication,
            "note_peer_alive",
            lambda bpid, address: noted.append((bpid, address)),
        )
        frame = self._frame(kind, handle, responder)
        responder.host.send(base.host.address, PROTO_ANSWER, frame)
        net.sim.run()
        expected = [(responder.bpid, responder.host.address)] if marks_alive else []
        assert noted == expected
