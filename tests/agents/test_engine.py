"""Tests for the agent execution engine."""

import pytest

from repro.agents.agent import Agent
from repro.agents.envelope import MODE_ITINERARY
from repro.agents.storm_agent import StorMSearchAgent
from repro.errors import AgentError

from tests.agents.helpers import AgentRig


class CountingAgent(Agent):
    """Counts objects at each host (itinerary-style accumulation)."""

    def __init__(self):
        self.counts = []

    def execute(self, context):
        self.counts.append([str(context.host_id), context.storm.count])


class TwoReplyAgent(Agent):
    """Replies twice from every visited host (a multi-part responder).

    Imports live inside ``execute``: shipped agent source runs in a
    fresh namespace on the remote host.
    """

    def execute(self, context):
        from repro.agents.messages import AnswerItem
        from repro.storm.heapfile import RecordId

        context.reply(
            [AnswerItem(rid=RecordId(0, 0), keywords=("k",), size=3, payload=b"one")]
        )
        context.reply(
            [AnswerItem(rid=RecordId(0, 1), keywords=("k",), size=3, payload=b"two")]
        )


class TestFloodSearch:
    def test_answers_return_directly_to_initiator(self):
        rig = AgentRig()
        a, b, c = rig.line("a", "b", "c")
        b.put_objects("jazz", 3)
        c.put_objects("jazz", 5)
        a.dispatch(StorMSearchAgent("jazz"))
        rig.sim.run()
        assert len(a.answers) == 2
        by_responder = {str(ans.responder): ans.answer_count for ans in a.answers}
        assert by_responder == {str(b.bpid): 3, str(c.bpid): 5}

    def test_answer_hops_reflect_distance(self):
        rig = AgentRig()
        a, b, c = rig.line("a", "b", "c")
        b.put_objects("jazz", 1)
        c.put_objects("jazz", 1)
        a.dispatch(StorMSearchAgent("jazz"))
        rig.sim.run()
        hops = {str(ans.responder): ans.hops for ans in a.answers}
        assert hops == {str(b.bpid): 1, str(c.bpid): 2}

    def test_direct_mode_ships_payloads(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        b.put_objects("jazz", 1, size=64)
        a.dispatch(StorMSearchAgent("jazz", mode="direct"))
        rig.sim.run()
        (answer,) = a.answers
        assert answer.items[0].payload == bytes([0]) * 64

    def test_metadata_mode_omits_payloads(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        b.put_objects("jazz", 1, size=64)
        a.dispatch(StorMSearchAgent("jazz", mode="metadata"))
        rig.sim.run()
        (answer,) = a.answers
        assert answer.items[0].payload is None
        assert answer.items[0].size == 64

    def test_every_host_executes_once_despite_cycles(self):
        rig = AgentRig()
        a = rig.add("a")
        b = rig.add("b")
        c = rig.add("c")
        # Triangle: clones will bounce around; dedup must hold.
        rig.link(a, b)
        rig.link(b, c)
        rig.link(c, a)
        for node in (b, c):
            node.put_objects("k", 1)
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        assert b.engine.agents_executed == 1
        assert c.engine.agents_executed == 1
        assert a.engine.agents_executed == 0  # initiator never re-executes
        assert b.engine.agents_deduped + c.engine.agents_deduped >= 1
        assert len(a.answers) == 2

    def test_ttl_limits_reach(self):
        rig = AgentRig()
        a, b, c, d = rig.line("a", "b", "c", "d")
        for node in (b, c, d):
            node.put_objects("k", 1)
        a.dispatch(StorMSearchAgent("k"), ttl=2)
        rig.sim.run()
        responders = {str(ans.responder) for ans in a.answers}
        # ttl=2: b (hop 1) and c (hop 2) respond; d (hop 3) is unreachable.
        assert responders == {str(b.bpid), str(c.bpid)}

    def test_expired_agent_executes_but_does_not_forward(self):
        rig = AgentRig()
        a, b, c = rig.line("a", "b", "c")
        b.put_objects("k", 1)
        c.put_objects("k", 1)
        a.dispatch(StorMSearchAgent("k"), ttl=1)
        rig.sim.run()
        assert {str(ans.responder) for ans in a.answers} == {str(b.bpid)}
        assert c.engine.agents_executed == 0

    def test_dispatch_validation(self):
        rig = AgentRig()
        a = rig.add("a")
        with pytest.raises(AgentError):
            a.dispatch(StorMSearchAgent("k"), ttl=0)
        with pytest.raises(AgentError):
            a.dispatch(StorMSearchAgent("k"), mode="teleport")
        with pytest.raises(AgentError):
            a.dispatch(StorMSearchAgent("k"), mode=MODE_ITINERARY, path=())


class TestCodeShippingOverWire:
    def test_class_ships_once_per_destination(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        b.put_objects("k", 1)
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        assert b.engine.registry.installs == 1
        first_run_messages = a.host.messages_sent
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        # Second dispatch: same class, no re-install.
        assert b.engine.registry.installs == 1
        assert a.host.messages_sent > first_run_messages

    def test_second_shipment_is_smaller(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        first_bytes = a.host.bytes_sent
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        second_bytes = a.host.bytes_sent - first_bytes
        # State-only envelope must be well below the source-carrying one.
        assert second_bytes < first_bytes * 0.8

    def test_class_miss_triggers_request_round_trip(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        b.put_objects("k", 2)
        # Pretend "b" already has the class so the envelope omits source.
        a.engine.registry.register_local(StorMSearchAgent)
        a.engine._shipped.add((b.host.address, "StorMSearchAgent"))
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        # b detected the miss, requested the class, then executed.
        assert b.engine.registry.installs == 1
        assert b.engine.agents_executed == 1
        assert len(a.answers) == 1
        assert rig.tracer.count("agent", "class-miss") == 1

    def test_class_request_for_unknown_class_is_ignored(self):
        """A class request nobody can serve must not crash the host."""
        rig = AgentRig()
        a, b = rig.line("a", "b")
        from repro.agents.engine import PROTO_CLASS_REQUEST
        from repro.agents.envelope import ClassRequest

        a.host.send(b.host.address, PROTO_CLASS_REQUEST, ClassRequest("NeverHeardOfIt"))
        rig.sim.run()  # no exception
        assert rig.tracer.count("agent", "class-unavailable") == 1

    def test_forwarded_class_installs_down_the_line(self):
        rig = AgentRig()
        a, b, c = rig.line("a", "b", "c")
        c.put_objects("k", 1)
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        # c got the class from b's forward, not from a.
        assert c.engine.registry.installs == 1
        assert len(a.answers) == 1


class TestTiming:
    def test_install_cost_delays_first_answer(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        b.put_objects("k", 1)
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        first_time = rig.sim.now
        # Re-issue: no install cost now, so it must complete faster.
        start = rig.sim.now
        a.dispatch(StorMSearchAgent("k"))
        rig.sim.run()
        second_duration = rig.sim.now - start
        assert second_duration < first_time

    def test_charge_rejects_negative(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")

        class BadAgent(Agent):
            def execute(self, context):
                context.charge(-1.0)

        a.dispatch(BadAgent())
        with pytest.raises(AgentError):
            rig.sim.run()


class TestFloodingConcurrency:
    def test_forwarding_is_not_blocked_by_slow_local_search(self):
        """Clones forward *before* local execution: a slow middle node
        must not delay the far node's answer by its own search time."""
        from repro.agents.agent import Agent

        class SlowAgent(Agent):
            def __init__(self, keyword):
                self.keyword = keyword

            def execute(self, context):
                from repro.agents.messages import AnswerItem

                result = context.storm.search_scan(self.keyword)
                context.charge(1.0)  # a full second of local work
                items = [
                    AnswerItem(rid=rid, keywords=obj.keywords, size=obj.size)
                    for rid, obj in result.matches
                ]
                if items:
                    context.reply(items)

        rig = AgentRig()
        a, b, c = rig.line("a", "b", "c")
        b.put_objects("k", 1)
        c.put_objects("k", 1)
        a.dispatch(SlowAgent("k"))
        rig.sim.run()
        arrival_by_responder = {}
        for answer in a.answers:
            arrival_by_responder[str(answer.responder)] = answer.hops
        assert len(a.answers) == 2
        # c (2 hops) answered well before b's 1s charge would allow if
        # forwarding had waited: both answers land just after t=1.
        assert rig.sim.now < 1.5


class TestItinerary:
    def test_agent_travels_path_and_returns_home(self):
        rig = AgentRig()
        a, b, c = rig.line("a", "b", "c")
        b.put_objects("x", 4)
        c.put_objects("x", 7)
        homecomings = []
        a.engine.on_agent_home = lambda agent_id, state: homecomings.append(state)
        a.dispatch(
            CountingAgent(),
            mode=MODE_ITINERARY,
            path=[b.host.address, c.host.address],
        )
        rig.sim.run()
        (state,) = homecomings
        assert state["counts"] == [[str(b.bpid), 4], [str(c.bpid), 7]]

    def test_itinerary_respects_ttl(self):
        rig = AgentRig()
        a, b, c = rig.line("a", "b", "c")
        homecomings = []
        a.engine.on_agent_home = lambda agent_id, state: homecomings.append(state)
        a.dispatch(
            CountingAgent(),
            mode=MODE_ITINERARY,
            ttl=1,
            path=[b.host.address, c.host.address],
        )
        rig.sim.run()
        (state,) = homecomings
        # TTL 1: only the first stop executed before the agent expired.
        assert len(state["counts"]) == 1
        assert c.engine.agents_executed == 0


class TestChurnDuringExecution:
    def test_outputs_lost_if_host_goes_offline(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        b.put_objects("k", 1)
        a.dispatch(StorMSearchAgent("k"))
        # Knock b offline before its service time elapses.
        rig.sim.schedule(0.001, b.host.disconnect)
        rig.sim.run()
        assert a.answers == []


class TestAnswerFrames:
    def test_each_reply_is_its_own_answer_frame(self):
        """Two replies from one host are two 0x1001 frames, and the
        initiator's handle records both answers in send order."""
        from repro import BestPeerConfig, build_network, line
        from repro.agents.engine import PROTO_ANSWER
        from repro.ids import QueryId

        net = build_network(2, config=BestPeerConfig(), topology=line(2))
        base = net.base
        handle = base.issue_query("nothing-stored")
        # A first run ships the class source, so the counted run below
        # puts only its answers on the data plane.
        base.dispatch_agent(TwoReplyAgent(), query_id=QueryId(base.bpid, 99))
        net.sim.run()
        assert handle.network_answer_count == 0
        type_ids = []

        def on_answer(packet):
            type_ids.append(int.from_bytes(packet.raw[2:4], "big"))
            base._on_answer(packet)

        base.host.unbind(PROTO_ANSWER)
        base.host.bind(PROTO_ANSWER, on_answer)
        data_frames = net.network.encoder.data_frames
        base.dispatch_agent(TwoReplyAgent(), query_id=handle.query_id)
        net.sim.run()
        assert type_ids == [0x1001, 0x1001]
        assert net.network.encoder.data_frames == data_frames + 2
        assert handle.network_answer_count == 2
        assert [answer.items[0].payload for answer in handle.answers] == [
            b"one",
            b"two",
        ]

    def test_node_records_each_answer_frame_individually(self):
        """Three answer frames from one responder are three answers in the
        initiator's handle, kept in arrival order."""
        from repro import BestPeerConfig, build_network, line
        from repro.agents.engine import PROTO_ANSWER
        from repro.agents.messages import AnswerItem, AnswerMessage
        from repro.storm.heapfile import RecordId

        net = build_network(2, config=BestPeerConfig(), topology=line(2))
        handle = net.base.issue_query("nothing-stored")
        net.sim.run()
        assert handle.network_answer_count == 0

        responder = net.nodes[1]
        answers = tuple(
            AnswerMessage(
                query_id=handle.query_id,
                responder=responder.bpid,
                responder_address=responder.host.address,
                hops=1,
                items=(
                    AnswerItem(
                        rid=RecordId(0, i), keywords=("k",), size=1, payload=b"x"
                    ),
                ),
            )
            for i in range(3)
        )
        for answer in answers:
            responder.host.send(net.base.host.address, PROTO_ANSWER, answer)
        net.sim.run()
        assert handle.network_answer_count == 3
        assert tuple(handle.answers) == answers
