"""End-to-end replication battery: placement, failover, invalidation.

Every scenario runs a real simulated BestPeer network (LIGLO join,
flooded search agents, the wire codecs) — the replication protocol is
exercised through exactly the paths a deployment would use.
"""

from types import SimpleNamespace

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.ids import BPID
from repro.net.address import IPAddress
from repro.replication import (
    ReplicaPush,
    ReplicaRecord,
    ReplicationPolicy,
    is_replica_rid,
    replica_store_rid,
)
from repro.topology.builders import line, random_graph


def deploy(node_count, policy, seed=1, **overrides):
    config = BestPeerConfig(
        max_direct_peers=8,
        strategy="maxcount",
        replication=policy,
        **overrides,
    )
    if node_count <= 3:
        topology = line(node_count)
    else:
        topology = random_graph(node_count, degree=3, seed=seed)
    return build_network(node_count, config=config, topology=topology)


def by_bpid(deployment):
    return {node.bpid: node for node in deployment.nodes}


class TestPlacement:
    def test_share_places_rf_minus_one_copies(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        rid = owner.share(["kw-place"], b"payload-place")
        net.sim.run()
        holders = owner.replication.holders_of(rid)
        assert len(holders) == 1
        holder = by_bpid(net)[next(iter(holders))]
        assert holder.replication.replicas_held == 1
        assert holder.replication.held_copies() == {(owner.bpid, rid): 1}
        assert owner.replication.statistics()["replica_offers"] == 1
        assert owner.replication.statistics()["replicas_pushed"] == 1

    def test_rf_three_places_two_copies(self):
        net = deploy(8, ReplicationPolicy(rf=3))
        owner = net.nodes[3]
        rid = owner.share(["kw-three"], b"three-copies")
        net.sim.run()
        assert len(owner.replication.holders_of(rid)) == 2
        held = sum(node.replication.replicas_held for node in net.nodes)
        assert held == 2

    def test_rf_one_is_inert(self):
        net = deploy(6, ReplicationPolicy())
        owner = net.nodes[2]
        rid = owner.share(["kw-inert"], b"single-copy")
        net.sim.run()
        stats = owner.replication.statistics()
        assert stats["replica_offers"] == 0
        assert stats["replicas_pushed"] == 0
        assert owner.replication.holders_of(rid) == {}
        assert all(node.replication.replicas_held == 0 for node in net.nodes)

    def test_declined_offer_rolls_back_holder_marking(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        for node in net.nodes:
            if node is not owner:
                node.replication.policy = ReplicationPolicy()  # will decline
        rid = owner.share(["kw-decline"], b"unwanted")
        net.sim.run()
        assert owner.replication.statistics()["replica_declines"] == 1
        assert owner.replication.holders_of(rid) == {}
        assert all(node.replication.replicas_held == 0 for node in net.nodes)

    def test_unanswered_offer_expires_rolls_back_and_charges(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        first_candidate = owner.replication._candidates()[0][0]
        by_bpid(net)[first_candidate].leave()  # silently unreachable
        rid = owner.share(["kw-expire"], b"no-answer")
        net.sim.run()
        assert owner.replication.holders_of(rid) == {}
        assert owner.request_timeouts.get("replica", 0) == 1

    def test_share_while_offline_places_on_rejoin(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        owner.leave()
        rid = owner.share(["kw-late"], b"shared-offline")
        net.sim.run()
        assert owner.replication.holders_of(rid) == {}
        owner.rejoin()
        net.sim.run()
        assert len(owner.replication.holders_of(rid)) == 1


class TestFailover:
    def test_replica_answers_when_owner_is_down(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[3]
        rid = owner.share(["kw-crash"], b"survives-the-crash")
        net.sim.run()
        assert len(owner.replication.holders_of(rid)) == 1
        owner.leave()
        handle = net.base.issue_query("kw-crash")
        net.sim.run()
        net.base.finish_query(handle)
        assert handle.distinct_answer_count == 1
        replica_rids = [
            item.rid
            for answer in handle.answers
            for item in answer.items
            if is_replica_rid(item.rid)
        ]
        assert replica_rids, "the surviving answer must come from a replica"
        assert sum(n.replication.replica_answers for n in net.nodes) >= 1

    def test_replica_payload_fetchable_behind_advertised_rid(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[3]
        rid = owner.share(["kw-fetch"], b"fetch-me-from-the-replica")
        net.sim.run()
        holder = by_bpid(net)[next(iter(owner.replication.holders_of(rid)))]
        store_rid = holder.replication._copies[(owner.bpid, rid)].store_rid
        advertised = holder.replication.replica_answer_rid(store_rid)
        assert is_replica_rid(advertised)
        assert replica_store_rid(advertised) == store_rid
        assert (
            holder.replication.replica_payload(advertised)
            == b"fetch-me-from-the-replica"
        )

    def test_rf2_never_double_counts_with_everyone_alive(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[3]
        owner.share(["kw-dedup"], b"counted-once")
        net.sim.run()
        handle = net.base.issue_query("kw-dedup")
        net.sim.run()
        net.base.finish_query(handle)
        # Owner and holder may both answer; content dedup collapses them.
        assert handle.network_answer_count >= 1
        assert handle.distinct_answer_count == 1

    def test_initiator_answers_from_its_own_replica(self):
        net = deploy(2, ReplicationPolicy(rf=2))
        base, other = net.nodes
        rid = other.share(["kw-self"], b"held-by-the-initiator")
        net.sim.run()
        assert base.replication.replicas_held == 1
        other.leave()
        handle = base.issue_query("kw-self")
        net.sim.run()
        base.finish_query(handle)
        assert handle.distinct_answer_count == 1
        self_answers = [
            answer for answer in handle.answers if answer.responder == base.bpid
        ]
        assert len(self_answers) == 1
        assert self_answers[0].hops == 0
        assert base.replication.replica_answers == 1


class TestInvalidation:
    def test_unshare_drops_replicas_everywhere(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        rid = owner.share(["kw-delete"], b"to-be-retired")
        net.sim.run()
        assert sum(n.replication.replicas_held for n in net.nodes) == 1
        owner.unshare(rid)
        net.sim.run()
        assert sum(n.replication.replicas_held for n in net.nodes) == 0
        assert owner.replication.statistics()["invalidations"] == 1

    def test_tombstone_blocks_replayed_push(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        rid = owner.share(["kw-zombie"], b"deleted-content")
        net.sim.run()
        holder = by_bpid(net)[next(iter(owner.replication.holders_of(rid)))]
        owner.unshare(rid)
        net.sim.run()
        assert holder.replication.replicas_held == 0
        replay = ReplicaPush(
            token=999,
            owner=owner.bpid,
            owner_address=owner.host.address,
            records=(
                ReplicaRecord(
                    rid=rid, version=1, keywords=("kw-zombie",), payload=b"deleted-content"
                ),
            ),
        )
        holder.replication._on_push(
            SimpleNamespace(payload=replay, src=owner.host.address)
        )
        assert holder.replication.replicas_held == 0
        assert holder.replication.replica_search("kw-zombie", use_index=True) is None

    def test_reshare_read_repairs_the_holder_copy(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        rid = owner.share(["kw-repair"], b"stale-content")
        net.sim.run()
        holder = by_bpid(net)[next(iter(owner.replication.holders_of(rid)))]
        assert holder.replication.held_copies() == {(owner.bpid, rid): 1}
        new_rid = owner.reshare(rid, ["kw-repair"], b"fresh-content")
        net.sim.run()
        assert holder.replication.held_copies() == {(owner.bpid, new_rid): 2}
        assert holder.replication.statistics()["stale_repairs"] == 1
        result = holder.replication.replica_search("kw-repair", use_index=True)
        assert [obj.payload for _rid, obj in result.matches] == [b"fresh-content"]

    def test_repaired_replica_answers_after_owner_crash(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        rid = owner.share(["kw-repaired"], b"v1")
        net.sim.run()
        owner.reshare(rid, ["kw-repaired"], b"v2")
        net.sim.run()
        owner.leave()
        handle = net.base.issue_query("kw-repaired")
        net.sim.run()
        net.base.finish_query(handle)
        assert handle.distinct_answer_count == 1
        payloads = {
            item.payload
            for answer in handle.answers
            for item in answer.items
            if item.payload is not None
        }
        assert payloads == {b"v2"}

    def test_slot_reuse_continues_the_version_sequence(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        rid = owner.share(["kw-slot"], b"first-life")
        net.sim.run()
        owner.unshare(rid)
        net.sim.run()
        rid2 = owner.share(["kw-slot"], b"second-life")
        net.sim.run()
        # StorM reuses the freed slot, so the new record must outversion
        # the tombstone the holders keep for the retired one.
        assert rid2 == rid
        assert sum(n.replication.replicas_held for n in net.nodes) == 1
        holder = by_bpid(net)[next(iter(owner.replication.holders_of(rid2)))]
        assert holder.replication.held_copies()[(owner.bpid, rid2)] == 2


class TestHotPromotion:
    def test_repeated_hits_promote_to_hot_rf(self):
        net = deploy(8, ReplicationPolicy(rf=2, hot_rf=3))
        owner = net.nodes[3]
        rid = owner.share(["kw-hot"], b"zipf-favourite")
        net.sim.run()
        assert len(owner.replication.holders_of(rid)) == 1
        for _ in range(2):  # EWMA 1.0 -> 1.5: trips on the second hit
            handle = net.base.issue_query("kw-hot")
            net.sim.run()
            net.base.finish_query(handle)
        assert rid in owner.replication.hot_records()
        assert len(owner.replication.holders_of(rid)) == 2
        assert sum(n.replication.replicas_held for n in net.nodes) == 2

    def test_cold_records_stay_at_rf(self):
        net = deploy(8, ReplicationPolicy(rf=2, hot_rf=3))
        owner = net.nodes[3]
        rid = owner.share(["kw-cold"], b"asked-once")
        net.sim.run()
        handle = net.base.issue_query("kw-cold")
        net.sim.run()
        net.base.finish_query(handle)
        assert owner.replication.hot_records() == frozenset()
        assert len(owner.replication.holders_of(rid)) == 1


class TestResultCache:
    def test_repeat_query_served_from_cache_without_traffic(self):
        net = deploy(6, ReplicationPolicy(rf=2, cache_capacity=4))
        owner = net.nodes[3]
        owner.share(["kw-cache"], b"zipf-hot")
        net.sim.run()
        first = net.base.issue_query("kw-cache")
        net.sim.run()
        net.base.finish_query(first)
        packets_before = net.network.packets_delivered
        second = net.base.issue_query("kw-cache")
        net.sim.run()
        assert second.served_from_cache
        assert second.finished or second.network_answer_count >= 1
        assert net.network.packets_delivered == packets_before
        assert second.distinct_answer_count == first.distinct_answer_count
        assert net.base.replication.statistics()["cache_hits"] == 1
        net.base.finish_query(second)

    def test_invalidate_drops_the_holders_cached_entry(self):
        net = deploy(2, ReplicationPolicy(rf=2, cache_capacity=4))
        base, owner = net.nodes
        rid = owner.share(["kw-coherent"], b"stale")
        net.sim.run()
        assert base.replication.replicas_held == 1
        first = base.issue_query("kw-coherent")
        net.sim.run()
        base.finish_query(first)
        assert base.replication.cached_answers("kw-coherent") is not None
        owner.reshare(rid, ["kw-coherent"], b"fresh")
        net.sim.run()
        # The invalidate that repaired the replica also dropped the
        # cached result sharing the changed keyword.
        second = base.issue_query("kw-coherent")
        net.sim.run()
        base.finish_query(second)
        assert not second.served_from_cache
        payloads = {
            item.payload
            for answer in second.answers
            for item in answer.items
            if item.payload is not None
        }
        assert b"fresh" in payloads
        assert b"stale" not in payloads

    def test_cache_disabled_without_capacity(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[3]
        owner.share(["kw-nocache"], b"never-cached")
        net.sim.run()
        for _ in range(2):
            handle = net.base.issue_query("kw-nocache")
            net.sim.run()
            net.base.finish_query(handle)
            assert not handle.served_from_cache
        assert net.base.replication.statistics()["cache_hits"] == 0


class TestLivenessInterplay:
    def test_note_peer_alive_is_bounded(self):
        net = deploy(2, ReplicationPolicy(rf=2))
        manager = net.base.replication
        for n in range(80):
            manager.note_peer_alive(
                BPID("liglo-synthetic", n), IPAddress(f"10.9.0.{n}")
            )
        assert len(manager._last_seen) == 64

    def test_refreshes_holder_address_on_answer_evidence(self):
        net = deploy(6, ReplicationPolicy(rf=2))
        owner = net.nodes[2]
        rid = owner.share(["kw-addr"], b"movable")
        net.sim.run()
        holder_bpid = next(iter(owner.replication.holders_of(rid)))
        moved = IPAddress("10.250.0.1")
        owner.replication.note_peer_alive(holder_bpid, moved)
        assert owner.replication.holders_of(rid)[holder_bpid] == moved


class TestStatisticsSurface:
    def test_counters_ride_node_statistics(self):
        net = deploy(6, ReplicationPolicy(rf=2, cache_capacity=4))
        owner = net.nodes[3]
        owner.share(["kw-stats"], b"counted")
        net.sim.run()
        stats = owner.statistics()
        for key in (
            "replicas_held",
            "replica_answers",
            "replicas_pushed",
            "replica_offers",
            "replica_declines",
            "invalidations",
            "stale_repairs",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_invalidations",
        ):
            assert key in stats
        assert stats["replica_offers"] == 1
