"""End-to-end tests for LivePeer: real sockets, real agents."""

import time
from dataclasses import replace

import pytest

from repro.live import LivePeer
from repro.live.engine import PROTO_AGENT
from repro.net.address import IPAddress
from repro.net.codec import decode_message, try_encode


@pytest.fixture
def peers():
    created = []

    def make(name, **kwargs):
        peer = LivePeer(name, **kwargs)
        created.append(peer)
        return peer

    yield make
    for peer in created:
        peer.close()


def line_of(make, count):
    nodes = [make(f"live-{i}") for i in range(count)]
    for left, right in zip(nodes, nodes[1:]):
        left.connect_to(right)
    return nodes


class TestLiveFrozenState:
    def test_dispatched_envelope_freezes_state_and_fits_the_compact_frame(
        self, peers, monkeypatch
    ):
        a, b = line_of(peers, 2)
        b.share(["jazz"], b"frozen")
        shipped = []
        try_send = a.endpoint.try_send

        def capture(dst, protocol, payload):
            if protocol == PROTO_AGENT:
                shipped.append(payload)
            return try_send(dst, protocol, payload)

        monkeypatch.setattr(a.endpoint, "try_send", capture)
        query = a.issue_query("jazz")
        assert query.wait_for_answers(1, timeout=5.0)  # b thawed and ran it
        (envelope,) = shipped
        assert type(envelope.state) is bytes
        assert envelope.thaw()["keyword"] == "jazz"
        # A state-only live hop still takes the pickle fallback, and only
        # for its (host, port) address, which the control frame's ipaddr
        # field cannot carry; the frozen state fits the frame as it is.
        state_only = envelope.with_source(None)
        assert try_encode(state_only) is None
        simulated = replace(state_only, initiator_address=IPAddress("10.0.0.1"))
        frame = try_encode(simulated)
        assert frame is not None and decode_message(frame) == simulated


class TestLiveQueries:
    def test_direct_peer_answers(self, peers):
        a, b = line_of(peers, 2)
        b.share(["jazz"], b"live payload")
        query = a.issue_query("jazz")
        assert query.wait_for_answers(1, timeout=5.0)
        assert query.answer_count == 1
        assert query.responders == {b.bpid}
        (answer,) = query.answers
        assert answer.items[0].payload == b"live payload"

    def test_multi_hop_flood_and_direct_return(self, peers):
        a, b, c, d = line_of(peers, 4)
        c.share(["jazz"], b"two hops away")
        d.share(["jazz"], b"three hops away")
        query = a.issue_query("jazz")
        assert query.wait_for_answers(2, timeout=5.0)
        assert query.responders == {c.bpid, d.bpid}
        hops = {answer.responder: answer.hops for answer in query.answers}
        assert hops[c.bpid] == 2
        assert hops[d.bpid] == 3

    def test_code_ships_once_per_destination(self, peers):
        a, b = line_of(peers, 2)
        b.share(["jazz"], b"x")
        first = a.issue_query("jazz")
        assert first.wait_for_answers(1, timeout=5.0)
        assert b.engine.registry.installs == 1
        second = a.issue_query("jazz")
        assert second.wait_for_answers(1, timeout=5.0)
        assert b.engine.registry.installs == 1  # cached class reused

    def test_ttl_limits_live_flood(self, peers):
        a, b, c = line_of(peers, 3)
        b.share(["k"], b"near")
        c.share(["k"], b"far")
        query = a.issue_query("k", ttl=1)
        assert query.wait_for_answers(1, timeout=5.0)
        time.sleep(0.2)  # give a (wrong) far answer time to arrive
        assert query.responders == {b.bpid}
        assert c.engine.agents_executed == 0

    def test_dedup_on_cycles(self, peers):
        a = peers("a")
        b = peers("b")
        c = peers("c")
        a.connect_to(b)
        b.connect_to(c)
        c.connect_to(a)
        b.share(["k"], b"1")
        c.share(["k"], b"2")
        query = a.issue_query("k")
        assert query.wait_for_answers(2, timeout=5.0)
        time.sleep(0.2)
        assert b.engine.agents_executed == 1
        assert c.engine.agents_executed == 1

    def test_dead_peer_does_not_break_query(self, peers):
        a = peers("a")
        b = peers("b")
        c = peers("c")
        a.connect_to(b)
        a.connect_to(c)
        c.share(["k"], b"alive")
        b.close()  # b is gone; sends to it must be swallowed
        query = a.issue_query("k")
        assert query.wait_for_answers(1, timeout=5.0)
        assert query.responders == {c.bpid}


class TestLiveReconfiguration:
    def test_answerers_become_direct_peers(self, peers):
        a, b, c, d = line_of(peers, 4)
        d.share(["jazz"], b"the far answer")
        query = a.issue_query("jazz")
        assert query.wait_for_answers(1, timeout=5.0)
        a.reconfigure(query)
        assert d.bpid in a.peer_bpids()
        # A follow-up query now reaches d in one hop.
        second = a.issue_query("jazz")
        assert second.wait_for_answers(1, timeout=5.0)
        hops = {ans.responder: ans.hops for ans in second.answers}
        assert hops[d.bpid] == 1

    def test_peer_cap_enforced(self, peers):
        a = peers("a", max_peers=1)
        b = peers("b")
        c = peers("c")
        a.connect_to(b)
        with pytest.raises(Exception):
            a.add_peer(c.bpid, c.address)


class TestLiveDiscovery:
    def test_discovery_reports_over_tcp(self, peers):
        import time

        a, b, c = line_of(peers, 3)
        b.share(["jazz"], b"x" * 100)
        c.share(["rock"], b"y" * 50)
        c.share(["rock"], b"z" * 50)
        a.discover()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and len(a.knowledge) < 2:
            time.sleep(0.02)
        assert len(a.knowledge) == 2
        report_c = a.knowledge.report_for(c.bpid)
        assert report_c.object_count == 2
        assert report_c.count_for("rock") == 2
        assert a.knowledge.best_providers(["rock"], k=1) == [c.bpid]


class TestLivePeerBasics:
    def test_context_manager(self):
        with LivePeer("ctx") as peer:
            assert peer.address[1] > 0
        # closed: port released, second close fine
        peer.close()

    def test_distinct_identities(self, peers):
        a, b = peers("a"), peers("b")
        assert a.bpid != b.bpid


class TestLiveBatchedAnswers:
    def test_batch_is_recorded_answer_by_answer(self, peers):
        """A remote sender may coalesce answers; the live node must
        record each one individually (batch-blind query accounting)."""
        from repro.agents.messages import AnswerItem, AnswerMessage, BatchedAnswers
        from repro.live.engine import PROTO_ANSWER
        from repro.storm.heapfile import RecordId

        a, b = line_of(peers, 2)
        query = a.issue_query("nothing-stored")
        answers = tuple(
            AnswerMessage(
                query_id=query.query_id,
                responder=b.bpid,
                responder_address=b.endpoint.address,
                hops=1,
                items=(
                    AnswerItem(
                        rid=RecordId(0, i), keywords=("k",), size=1, payload=b"x"
                    ),
                ),
            )
            for i in range(3)
        )
        b.endpoint.send(a.endpoint.address, PROTO_ANSWER, BatchedAnswers(answers))
        assert query.wait_for_answers(3, timeout=5.0)
        assert tuple(query.answers) == answers
