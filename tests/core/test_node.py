"""Integration tests for BestPeerNode."""

import pytest

from repro.agents.costs import AgentCosts
from repro.core import BestPeerConfig, build_network
from repro.errors import AccessDeniedError, BestPeerError
from repro.topology import line, star, tree

FAST = AgentCosts(
    class_install_time=0.005,
    state_install_time=0.001,
    execute_overhead=0.0,
    page_io_time=0.0001,
    object_match_time=0.000001,
)


def small_config(**overrides):
    defaults = dict(max_direct_peers=8, agent_costs=FAST)
    defaults.update(overrides)
    return BestPeerConfig(**defaults)


def fill(node, index, keyword="jazz", count=2):
    """``count`` matches on every node but the base (index 0)."""
    if index == 0:
        return
    for i in range(count):
        node.share([keyword], bytes([index]) * 16)


class TestBuildNetwork:
    def test_all_nodes_join_and_get_bpids(self):
        net = build_network(4, config=small_config())
        assert all(node.joined for node in net.nodes)
        assert len({str(node.bpid) for node in net.nodes}) == 4

    def test_topology_applied(self):
        net = build_network(4, config=small_config(), topology=line(4))
        assert len(net.nodes[0].peers) == 1
        assert len(net.nodes[1].peers) == 2
        assert net.nodes[1].bpid in net.nodes[0].peers

    def test_star_needs_wide_peer_table(self):
        with pytest.raises(Exception):
            build_network(5, config=small_config(max_direct_peers=2), topology=star(5))

    def test_per_node_configs(self):
        configs = [small_config(max_direct_peers=3 + i) for i in range(3)]
        net = build_network(3, config=configs)
        assert [n.config.max_direct_peers for n in net.nodes] == [3, 4, 5]

    def test_without_topology_liglo_supplies_peers(self):
        net = build_network(4, config=small_config())
        # Later joiners receive earlier members as initial peers.
        assert len(net.nodes[3].peers) >= 1

    def test_config_count_mismatch(self):
        with pytest.raises(BestPeerError):
            build_network(3, config=[small_config()] * 2)


class TestQueryFlow:
    def test_query_collects_all_answers_on_line(self):
        net = build_network(4, config=small_config(), topology=line(4))
        net.populate(fill)
        handle = net.base.issue_query("jazz")
        net.sim.run()
        assert handle.network_answer_count == 6  # 3 nodes x 2 objects
        assert len(handle.responders) == 3

    def test_local_store_searched(self):
        net = build_network(2, config=small_config(), topology=line(2))
        net.base.share(["jazz"], b"local object")
        handle = net.base.issue_query("jazz")
        net.sim.run()
        assert handle.local_result.match_count == 1
        assert handle.network_answer_count == 0

    def test_local_search_disabled(self):
        net = build_network(
            2, config=small_config(search_own_store=False), topology=line(2)
        )
        net.base.share(["jazz"], b"local object")
        handle = net.base.issue_query("jazz")
        net.sim.run()
        assert handle.local_result is None

    def test_answer_arrival_times_monotonic(self):
        net = build_network(6, config=small_config(), topology=line(6))
        net.populate(fill)
        handle = net.base.issue_query("jazz")
        net.sim.run()
        assert handle.arrival_times == sorted(handle.arrival_times)
        assert handle.completion_time > 0

    def test_auto_finish(self):
        net = build_network(3, config=small_config(), topology=line(3))
        net.populate(fill)
        handle = net.base.issue_query("jazz", auto_finish_after=1.0)
        net.sim.run()
        assert handle.finished

    def test_query_before_join_raises(self):
        from repro.core.node import BestPeerNode
        from repro.net import Network
        from repro.sim import Simulator

        network = Network(Simulator())
        node = BestPeerNode(network, "loner", config=small_config())
        with pytest.raises(BestPeerError):
            node.issue_query("jazz")

    def test_metadata_mode_then_fetch(self):
        net = build_network(
            2, config=small_config(result_mode="metadata"), topology=line(2)
        )
        rid = net.nodes[1].share(["jazz"], b"the payload")
        handle = net.base.issue_query("jazz")
        net.sim.run()
        (answer,) = handle.answers
        item = answer.items[0]
        assert item.payload is None
        fetched = []
        net.base.fetch(answer.responder_address, item.rid, fetched.append)
        net.sim.run()
        assert fetched[0].found
        assert fetched[0].payload == b"the payload"

    def test_fetch_vanished_object(self):
        net = build_network(
            2, config=small_config(result_mode="metadata"), topology=line(2)
        )
        rid = net.nodes[1].share(["jazz"], b"here today")
        handle = net.base.issue_query("jazz")
        net.sim.run()
        (answer,) = handle.answers
        net.nodes[1].storm.delete(answer.items[0].rid)
        fetched = []
        net.base.fetch(answer.responder_address, answer.items[0].rid, fetched.append)
        net.sim.run()
        assert fetched[0].found is False


class TestStatistics:
    def test_counters_after_a_query(self):
        net = build_network(3, config=small_config(), topology=line(3))
        net.populate(fill)
        handle = net.base.issue_query("jazz")
        net.sim.run()
        stats = net.base.statistics()
        assert stats["queries_issued"] == 1
        assert stats["answers_received"] == 2
        assert stats["messages_sent"] >= 1
        assert stats["direct_peers"] == 1
        assert stats["agents_executed"] == 0  # the base never self-executes
        relay_stats = net.nodes[1].statistics()
        assert relay_stats["agents_executed"] == 1
        assert relay_stats["shared_objects"] == 2


class TestDistinctPayloads:
    def test_replicated_answers_deduplicated(self):
        net = build_network(4, config=small_config(), topology=star(4))
        shared_payload = b"the one true object"
        for node in net.nodes[1:]:
            node.share(["jazz"], shared_payload)  # 3 replicas
            node.share(["jazz"], f"unique-{node.name}".encode())
        handle = net.base.issue_query("jazz")
        net.sim.run()
        assert handle.network_answer_count == 6
        assert handle.distinct_answer_count == 4  # 1 shared + 3 unique

    def test_metadata_answers_merge_on_keywords_and_size(self):
        net = build_network(
            3, config=small_config(result_mode="metadata"), topology=star(3)
        )
        for node in net.nodes[1:]:
            node.share(["jazz"], b"same bytes")
        handle = net.base.issue_query("jazz")
        net.sim.run()
        # No payloads to compare: equal keywords and size are one object.
        assert handle.network_answer_count == 2
        assert handle.distinct_answer_count == 1


class TestReconfiguration:
    def test_maxcount_brings_answerers_close(self):
        """Figure 2: after a query, answer-bearing far nodes become
        direct peers of the base."""
        net = build_network(
            4, config=small_config(max_direct_peers=2, strategy="maxcount"),
            topology=line(4),
        )
        # Only the far nodes hold matches.
        net.nodes[2].share(["jazz"], b"x")
        net.nodes[3].share(["jazz"], b"y" * 2)
        handle = net.base.issue_query("jazz")
        net.sim.run()
        net.base.finish_query(handle)
        peer_ids = set(net.base.peers.bpids())
        assert peer_ids == {net.nodes[2].bpid, net.nodes[3].bpid}

    def test_static_strategy_never_changes(self):
        net = build_network(
            4, config=small_config(strategy="static"), topology=line(4)
        )
        net.nodes[3].share(["jazz"], b"x")
        before = set(net.base.peers.bpids())
        handle = net.base.issue_query("jazz")
        net.sim.run()
        net.base.finish_query(handle)
        assert set(net.base.peers.bpids()) == before

    def test_second_query_reaches_reconfigured_peers_faster(self):
        net = build_network(
            5, config=small_config(max_direct_peers=2), topology=line(5)
        )
        net.nodes[4].share(["jazz"], b"far away object")
        first = net.base.issue_query("jazz")
        net.sim.run()
        net.base.finish_query(first)
        first_completion = first.completion_time
        second = net.base.issue_query("jazz")
        net.sim.run()
        assert second.completion_time < first_completion

    def test_minhops_prefers_far_nodes(self):
        # Only the base runs MinHops with k=1; relays need room for 2 peers.
        configs = [small_config(max_direct_peers=1, strategy="minhops")] + [
            small_config() for _ in range(3)
        ]
        net = build_network(4, config=configs, topology=line(4))
        net.nodes[1].share(["jazz"], b"near")
        net.nodes[3].share(["jazz"], b"far")
        handle = net.base.issue_query("jazz")
        net.sim.run()
        net.base.finish_query(handle)
        assert net.base.peers.bpids() == [net.nodes[3].bpid]


class TestChurnAndRejoin:
    def test_rejoin_updates_peer_addresses(self):
        net = build_network(3, config=small_config(), topology=line(3))
        middle = net.nodes[1]
        old_address = middle.host.address
        # The middle node churns: leaves, rejoins under a fresh IP.
        middle.leave()
        middle.rejoin()
        net.sim.run()
        assert middle.host.address != old_address
        # Base rejoins too and refreshes peer addresses via LIGLO.
        net.base.leave()
        net.base.rejoin()
        net.sim.run()
        assert net.base.peers.get(middle.bpid).address == middle.host.address

    def test_rejoin_drops_offline_peers(self):
        net = build_network(
            3, config=small_config(), topology=line(3), liglo_check_interval=2.0
        )
        middle = net.nodes[1]
        middle.leave()
        net.sim.run(until=net.sim.now + 10.0)  # validity check marks it offline
        net.base.leave()
        net.base.rejoin()
        net.sim.run()
        assert middle.bpid not in net.base.peers

    def test_query_still_works_after_churn_cycle(self):
        net = build_network(3, config=small_config(), topology=line(3))
        net.populate(fill)
        net.nodes[1].leave()
        net.nodes[1].rejoin()
        net.sim.run()
        net.base.rejoin_peers = None  # base never left; addresses refreshed below
        net.base.leave()
        net.base.rejoin()
        net.sim.run()
        handle = net.base.issue_query("jazz")
        net.sim.run()
        assert len(handle.responders) == 2


class TestActiveObjects:
    def test_guard_filters_by_credential(self):
        net = build_network(2, config=small_config(), topology=line(2))
        owner, requester = net.nodes[1], net.nodes[0]

        def element(requester_bpid, credential, data):
            if credential == "secret":
                return data
            if credential == "public":
                return data.split(b"|")[0]
            raise AccessDeniedError(f"credential {credential!r} not recognized")

        owner.share_active("report", b"public part|secret part", element)
        replies = []
        requester.request_active(
            owner.host.address, "report", "public", replies.append
        )
        requester.request_active(
            owner.host.address, "report", "secret", replies.append
        )
        requester.request_active(
            owner.host.address, "report", "wrong", replies.append
        )
        net.sim.run()
        by_content = {r.content for r in replies if r.granted}
        assert by_content == {b"public part", b"public part|secret part"}
        denied = [r for r in replies if not r.granted]
        assert len(denied) == 1
        assert "not recognized" in denied[0].reason

    def test_missing_active_object(self):
        net = build_network(2, config=small_config(), topology=line(2))
        replies = []
        net.base.request_active(
            net.nodes[1].host.address, "ghost", "any", replies.append
        )
        net.sim.run()
        assert replies[0].granted is False
        assert "no such object" in replies[0].reason


class TestComputeSharing:
    def test_custom_agent_runs_at_provider(self):
        """Section 3.2.3: the requester ships the algorithm."""
        from repro.agents.agent import Agent

        class WordCountAgent(Agent):
            def __init__(self, keyword):
                self.keyword = keyword

            def execute(self, context):
                result = context.storm.search_scan(self.keyword)
                context.charge_search(result)
                total = sum(obj.payload.count(b" ") + 1 for _, obj in result.matches)
                from repro.agents.messages import AnswerItem
                from repro.storm.heapfile import RecordId

                context.reply(
                    [
                        AnswerItem(
                            rid=RecordId(0, 0),
                            keywords=(self.keyword,),
                            size=total,
                            payload=None,
                        )
                    ]
                )

        net = build_network(2, config=small_config(), topology=line(2))
        net.nodes[1].share(["text"], b"three word payload")
        net.nodes[1].share(["text"], b"two words")
        collected = []
        from repro.agents.engine import PROTO_ANSWER

        net.base.host.unbind(PROTO_ANSWER)
        net.base.host.bind(
            PROTO_ANSWER, lambda packet: collected.append(packet.payload)
        )
        net.base.dispatch_agent(WordCountAgent("text"))
        net.sim.run()
        (answer,) = collected
        # Only the aggregate (5 words) crossed the network, not the texts.
        assert answer.items[0].size == 5

    def test_dispatched_agents_answers_travel_as_data_frames(self):
        """With no query id given, ``dispatch_agent`` mints one, as
        ``issue_query`` does, so every answer is a data-plane frame."""
        from repro.agents.engine import PROTO_ANSWER
        from repro.agents.messages import AnswerMessage
        from repro.agents.storm_agent import StorMSearchAgent
        from repro.ids import QueryId
        from repro.net.codec import DATA

        net = build_network(3, config=small_config(), topology=star(3))
        for node in net.nodes[1:]:
            node.share(["text"], b"a few words")
        packets = []
        net.base.host.unbind(PROTO_ANSWER)
        net.base.host.bind(PROTO_ANSWER, packets.append)
        net.base.dispatch_agent(StorMSearchAgent("text"))
        net.sim.run()
        assert len(packets) == 2
        assert all(packet.raw[0] == DATA.magic for packet in packets)
        assert all(type(packet.payload) is AnswerMessage for packet in packets)
        minted = {packet.payload.query_id for packet in packets}
        assert minted == {QueryId(net.base.bpid, 0)}
        # the next query gets the next serial
        assert net.base.issue_query("text").query_id == QueryId(net.base.bpid, 1)
