"""Tests for the LIGLO keyword hint directory (super-peer routing).

Server side: the directory records publishes, answers queries with the
*online* holders only, and caps replies at ``max_hints``.  Client side:
``fetch_hints`` is single-shot — a silent LIGLO surfaces as ``None`` so
the caller can flood.  End-to-end: a super-peer query reaches the same
answers as a MaxCount flood while putting fewer packets on the wire.
"""

import pytest

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.errors import LigloError
from repro.liglo import LigloClient, LigloServer
from repro.liglo.server import MAX_HINTS
from repro.net import Network
from repro.sim import Simulator
from repro.topology.builders import random_graph
from repro.util.tracing import Tracer


class Rig:
    def __init__(self):
        self.sim = Simulator()
        self.tracer = Tracer()
        self.network = Network(self.sim, tracer=self.tracer)
        host = self.network.create_host("liglo-0")
        self.server = LigloServer(host, tracer=self.tracer)
        self._node_count = 0

    def add_client(self):
        host = self.network.create_host(f"node-{self._node_count}")
        self._node_count += 1
        client = LigloClient(host, tracer=self.tracer)
        client.register(self.server.host.address, lambda result: None)
        self.sim.run()
        assert client.bpid is not None
        return host, client


class TestDirectory:
    def test_publish_records_keywords(self):
        rig = Rig()
        _, client = rig.add_client()
        client.publish_hints(["jazz", "blues"])
        rig.sim.run()
        assert rig.server.hint_index == {
            "jazz": {client.bpid.node_id},
            "blues": {client.bpid.node_id},
        }
        stats = rig.server.stats()
        assert stats["hint_keywords"] == 2
        assert stats["hint_publishes"] == 1

    def test_query_returns_holders_sorted_by_node_id(self):
        rig = Rig()
        clients = [rig.add_client()[1] for _ in range(3)]
        for client in reversed(clients):  # publish order must not matter
            client.publish_hints(["jazz"])
        rig.sim.run()
        replies = []
        clients[0].fetch_hints("jazz", replies.append)
        rig.sim.run()
        (reply,) = replies
        assert [bpid.node_id for bpid, _ in reply.holders] == [0, 1, 2]
        assert [addr for _, addr in reply.holders] == [
            rig.server.members[b.node_id].address for b, _ in reply.holders
        ]

    def test_unknown_keyword_returns_no_holders(self):
        rig = Rig()
        _, client = rig.add_client()
        replies = []
        client.fetch_hints("nosuch", replies.append)
        rig.sim.run()
        assert replies[0].holders == ()

    def test_offline_holders_excluded(self):
        rig = Rig()
        _, holder = rig.add_client()
        _, asker = rig.add_client()
        holder.publish_hints(["jazz"])
        rig.sim.run()
        rig.server.members[holder.bpid.node_id].online = False
        replies = []
        asker.fetch_hints("jazz", replies.append)
        rig.sim.run()
        assert replies[0].holders == ()

    def test_reply_capped_at_max_hints(self):
        rig = Rig()
        clients = [rig.add_client()[1] for _ in range(MAX_HINTS + 2)]
        for client in clients:
            client.publish_hints(["jazz"])
        rig.sim.run()
        replies = []
        clients[0].fetch_hints("jazz", replies.append)
        rig.sim.run()
        assert len(replies[0].holders) == MAX_HINTS
        # Deterministic cap: the lowest node ids win.
        assert [bpid.node_id for bpid, _ in replies[0].holders] == list(range(MAX_HINTS))

    def test_publish_from_stranger_ignored(self):
        rig = Rig()
        other = Rig()
        _, stranger = other.add_client()
        # Same wire shape, but this server never registered the BPID.
        from repro.liglo import messages as m

        host = rig.network.create_host("stranger")
        host.send(
            rig.server.host.address,
            m.PROTO_HINT_PUBLISH,
            m.HintPublish(stranger.bpid, ("jazz",)),
        )
        rig.sim.run()
        assert rig.server.hint_index == {}
        assert rig.server.hint_publishes == 0

    def test_publish_refreshes_liveness(self):
        rig = Rig()
        _, client = rig.add_client()
        rig.server.members[client.bpid.node_id].online = False
        client.publish_hints(["jazz"])
        rig.sim.run()
        assert rig.server.members[client.bpid.node_id].online


class TestClient:
    def test_operations_require_registration(self):
        rig = Rig()
        host = rig.network.create_host("unregistered")
        client = LigloClient(host, tracer=rig.tracer)
        with pytest.raises(LigloError):
            client.publish_hints(["jazz"])
        with pytest.raises(LigloError):
            client.fetch_hints("jazz", lambda reply: None)

    def test_timeout_surfaces_none(self):
        rig = Rig()
        _, client = rig.add_client()
        rig.server.host.suspend()  # LIGLO outage
        replies = []
        client.fetch_hints("jazz", replies.append)
        rig.sim.run()
        assert replies == [None]
        assert client.pending_counts()["hints"] == 0

    def test_single_shot_no_duplicate_callback(self):
        rig = Rig()
        _, client = rig.add_client()
        replies = []
        client.fetch_hints("jazz", replies.append)
        rig.sim.run()  # reply arrives, then the expiry timer fires
        assert replies == [()] or [r.holders for r in replies] == [()]
        assert len(replies) == 1


class TestEndToEnd:
    def _run(self, strategy: str):
        config = BestPeerConfig(max_direct_peers=8, ttl=8, strategy=strategy)
        net = build_network(
            8, config=config, topology=random_graph(8, degree=3, seed=1)
        )
        keyword = "jazz"
        for index, node in enumerate(net.nodes[1:], 1):
            node.share([keyword], index.to_bytes(4, "big") * 8)
        net.sim.run()
        handle = net.base.issue_query(keyword, auto_finish_after=2.0)
        net.sim.run()
        return net, handle

    def test_superpeer_matches_flood_recall_with_fewer_packets(self):
        flood_net, flood_handle = self._run("maxcount")
        hint_net, hint_handle = self._run("superpeer")
        assert hint_handle.network_answer_count == flood_handle.network_answer_count
        assert hint_net.network.packets_delivered < flood_net.network.packets_delivered
        assert hint_net.base.hint_queries == 1
        assert hint_net.base.hint_hits == 1
        assert hint_net.base.hint_fallbacks == 0

    def test_empty_directory_falls_back_to_flood(self):
        config = BestPeerConfig(max_direct_peers=8, ttl=8, strategy="superpeer")
        net = build_network(
            6, config=config, topology=random_graph(6, degree=2, seed=0)
        )
        # Nobody shared anything: the directory is empty for every keyword.
        handle = net.base.issue_query("nosuch", auto_finish_after=2.0)
        net.sim.run()
        assert net.base.hint_queries == 1
        assert net.base.hint_fallbacks == 1
        assert handle.network_answer_count == 0

    def test_liglo_outage_falls_back_to_flood(self):
        config = BestPeerConfig(max_direct_peers=8, ttl=8, strategy="superpeer")
        net = build_network(
            6, config=config, topology=random_graph(6, degree=2, seed=0)
        )
        keyword = "jazz"
        for index, node in enumerate(net.nodes[1:], 1):
            node.share([keyword], index.to_bytes(4, "big") * 8)
        net.sim.run()
        net.liglo_servers[0].host.suspend()
        handle = net.base.issue_query(keyword, auto_finish_after=2.0)
        net.sim.run()
        assert net.base.hint_fallbacks == 1
        # The flood still finds every holder the overlay can reach.
        assert handle.network_answer_count == len(net.nodes) - 1
