"""Answer batching: outbox coalescing on send, per-answer fan-in on receive.

Batching is an encoding-layer concern only — a multi-reply agent ships
one :class:`BatchedAnswers` frame, but the receiver records each answer
individually, so query accounting never sees the difference.
"""

from __future__ import annotations

from repro.agents.agent import Agent
from repro.agents.engine import PROTO_ANSWER, _coalesce_answers
from repro.agents.messages import AnswerItem, AnswerMessage, BatchedAnswers
from repro.ids import BPID, QueryId
from repro.net.address import IPAddress
from repro.storm.heapfile import RecordId

from tests.agents.helpers import AgentRig


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


class OneReplyAgent(Agent):
    def execute(self, context):
        from repro.agents.messages import AnswerItem
        from repro.storm.heapfile import RecordId

        context.reply(
            [AnswerItem(rid=RecordId(0, 0), keywords=("k",), size=3, payload=b"one")]
        )


def _answer(serial: int, dst_serial: int = 1) -> AnswerMessage:
    origin = BPID("liglo-test", 0)
    return AnswerMessage(
        query_id=QueryId(origin, dst_serial),
        responder=BPID("liglo-test", 1),
        responder_address=IPAddress("10.0.0.2"),
        hops=1,
        items=(
            AnswerItem(rid=RecordId(0, serial), keywords=("k",), size=1, payload=b"x"),
        ),
    )


DST_A = IPAddress("10.0.0.1")
DST_B = IPAddress("10.0.0.9")


class TestCoalesceAnswers:
    def test_run_of_same_dst_and_query_becomes_one_batch(self):
        outbox = [
            (DST_A, PROTO_ANSWER, _answer(1)),
            (DST_A, PROTO_ANSWER, _answer(2)),
            (DST_A, PROTO_ANSWER, _answer(3)),
        ]
        ((dst, protocol, payload),) = _coalesce_answers(outbox)
        assert dst == DST_A and protocol == PROTO_ANSWER
        assert isinstance(payload, BatchedAnswers)
        assert payload.answers == (_answer(1), _answer(2), _answer(3))

    def test_single_answer_is_not_wrapped(self):
        outbox = [(DST_A, PROTO_ANSWER, _answer(1))]
        assert _coalesce_answers(outbox) == outbox

    def test_different_queries_do_not_merge(self):
        outbox = [
            (DST_A, PROTO_ANSWER, _answer(1, dst_serial=1)),
            (DST_A, PROTO_ANSWER, _answer(2, dst_serial=2)),
        ]
        assert _coalesce_answers(outbox) == outbox

    def test_different_destinations_do_not_merge(self):
        outbox = [
            (DST_A, PROTO_ANSWER, _answer(1)),
            (DST_B, PROTO_ANSWER, _answer(2)),
        ]
        assert _coalesce_answers(outbox) == outbox

    def test_non_answer_sends_break_the_run_and_keep_order(self):
        other = (DST_A, "other.proto", {"x": 1})
        outbox = [
            (DST_A, PROTO_ANSWER, _answer(1)),
            other,
            (DST_A, PROTO_ANSWER, _answer(2)),
        ]
        coalesced = _coalesce_answers(outbox)
        assert coalesced == outbox  # runs of one stay unwrapped, order kept

    def test_empty_outbox(self):
        assert _coalesce_answers([]) == []


class TestEngineBatching:
    def test_multi_reply_agent_ships_one_batched_frame(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        a.dispatch(TwoReplyAgent())
        rig.sim.run()
        # One packet arrived, carrying both answers as a batch.
        (payload,) = a.answers
        assert isinstance(payload, BatchedAnswers)
        assert len(payload.answers) == 2
        assert [i.payload for ans in payload.answers for i in ans.items] == [
            b"one",
            b"two",
        ]

    def test_single_reply_agent_ships_a_plain_answer(self):
        rig = AgentRig()
        a, b = rig.line("a", "b")
        a.dispatch(OneReplyAgent())
        rig.sim.run()
        (payload,) = a.answers
        assert isinstance(payload, AnswerMessage)


class TestNodeReceivesBatch:
    def test_batch_records_each_answer_individually(self):
        """QueryHandle accounting is batch-blind: N answers, not 1."""
        from repro import BestPeerConfig, build_network, line

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
        responder.host.send(
            net.base.host.address, "bestpeer.answer", BatchedAnswers(answers)
        )
        net.sim.run()
        assert handle.network_answer_count == 3
        assert tuple(handle.answers) == answers
