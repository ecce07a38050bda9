"""Edge branches of the replication manager: races, stragglers, inactive policies."""

from types import SimpleNamespace

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.replication import ReplicaAccept, ReplicationPolicy
from repro.storm.heapfile import RecordId
from repro.topology.builders import line


def deploy(policy=None, node_count=3):
    config = BestPeerConfig(
        max_direct_peers=4,
        strategy="maxcount",
        replication=policy or ReplicationPolicy(rf=2),
    )
    return build_network(node_count, config=config, topology=line(node_count))


class TestStragglerFrames:
    def test_accept_for_unknown_token_is_ignored(self):
        net = deploy()
        manager = net.nodes[1].replication
        stale = ReplicaAccept(token=424242, holder=net.base.bpid, accepted=True)
        manager._on_accept(SimpleNamespace(payload=stale, src=net.base.host.address))
        assert manager.statistics()["replicas_pushed"] == 0

    def test_expired_token_cannot_fire_twice(self):
        net = deploy()
        manager = net.nodes[1].replication
        manager.requests.expire(999)  # never offered; must be a no-op
        assert net.nodes[1].request_timeouts.get("replica", 0) == 0


class TestBypassBranches:
    def test_inactive_policy_places_nothing_caches_nothing_refuses_offers(self):
        net = deploy(ReplicationPolicy())
        owner = net.nodes[1]
        assert not owner.replication.enabled
        rid = owner.share(["kw"], b"content")
        net.sim.run()
        assert owner.replication.statistics()["replica_offers"] == 0
        owner.replication.cache_answers("kw", ("answer",))
        assert owner.replication.cached_answers("kw") is None
        owner.unshare(rid)  # nothing placed, so nothing to invalidate
        net.sim.run()
        assert owner.replication.statistics()["invalidations"] == 0
        # An active owner among inactive peers: its offer is refused.
        owner.replication.policy = ReplicationPolicy(rf=2)
        rid = owner.share(["kw"], b"content")
        net.sim.run()
        assert owner.replication.statistics()["replica_declines"] == 1
        assert owner.replication.holders_of(rid) == {}
        assert all(node.replication.replicas_held == 0 for node in net.nodes)

    def test_note_query_hits_inactive_without_hot_rf(self):
        net = deploy(ReplicationPolicy(rf=2))
        owner = net.nodes[1]
        rid = owner.share(["kw"], b"content")
        net.sim.run()
        owner.replication.note_query_hits((rid,))
        owner.replication.note_query_hits((rid,))
        assert owner.replication.hot_records() == frozenset()


class TestReshareEdges:
    def test_reshare_of_pre_replication_record_places_fresh(self):
        net = deploy()
        owner = net.nodes[1]
        # Loaded straight into the store (as provisioning does): never versioned.
        rid = owner.storm.put(["kw-old"], b"pre-replication")
        new_rid = owner.reshare(rid, ["kw-old"], b"now-replicated")
        net.sim.run()
        # Treated as a fresh share: placed, no invalidate sent.
        assert len(owner.replication.holders_of(new_rid)) == 1
        assert owner.replication.statistics()["invalidations"] == 0

    def test_reshare_with_no_holders_places_the_replacement(self):
        net = deploy(node_count=2)
        base, owner = net.nodes
        base.replication.policy = ReplicationPolicy()  # declines offers
        rid = owner.share(["kw"], b"v1")
        net.sim.run()
        assert owner.replication.holders_of(rid) == {}
        base.replication.policy = ReplicationPolicy(rf=2)  # accepts now
        new_rid = owner.reshare(rid, ["kw"], b"v2")
        net.sim.run()
        assert len(owner.replication.holders_of(new_rid)) == 1
        assert base.replication.replicas_held == 1


class TestFetchFallback:
    def test_replica_payload_rejects_primary_rids(self):
        net = deploy()
        owner = net.nodes[1]
        owner.share(["kw"], b"content")
        net.sim.run()
        holder = next(
            node for node in net.nodes if node.replication.replicas_held == 1
        )
        assert holder.replication.replica_payload(RecordId(0, 0)) is None

    def test_replica_payload_without_a_store(self):
        net = deploy()
        assert (
            net.nodes[1].replication.replica_payload(
                RecordId(0x8000_0000, 0)
            )
            is None
        )


class TestStaleAddressReoffer:
    def test_offer_follows_candidate_to_its_new_address(self):
        # The candidate reconnects under a fresh IP before the share;
        # the owner's tables still hold the old one.  The timed-out
        # offer must chase the LIGLO-resolved address and land.
        net = deploy()
        base, owner, _ = net.nodes
        old_address = base.host.address
        base.leave()
        base.rejoin()
        net.sim.run()
        assert base.host.address != old_address
        assert owner.peers.get(base.bpid).address == old_address
        rid = owner.share(["kw"], b"content")
        net.sim.run()
        assert owner.request_timeouts["replica"] == 1
        assert owner.replication.holders_of(rid) == {
            base.bpid: base.host.address
        }
        assert base.replication.replicas_held == 1

    def test_no_reoffer_when_the_candidate_is_really_gone(self):
        net = deploy()
        base, owner, _ = net.nodes
        base.leave()
        rid = owner.share(["kw"], b"content")
        net.sim.run()
        # Resolve reports the candidate offline: rollback is final.
        assert owner.replication.holders_of(rid) == {}
        assert owner.request_timeouts["replica"] == 1

    def test_record_deleted_while_resolve_in_flight(self):
        net = deploy()
        base, owner, _ = net.nodes
        old_address = base.host.address
        base.leave()
        base.rejoin()
        net.sim.run()
        assert base.host.address != old_address
        rid = owner.share(["kw"], b"content")
        fetch_timeout = owner.config.fetch_timeout
        net.sim.schedule(fetch_timeout + 0.01, owner.unshare, rid)
        net.sim.run()
        # The re-offer found nothing live to ship; nobody holds a copy.
        assert base.replication.replicas_held == 0
        assert owner.replication.holders_of(rid) == {}
