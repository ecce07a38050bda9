"""Unit tests for the query handle lifecycle."""

import pytest

from repro.agents.messages import AnswerItem, AnswerMessage
from repro.core.query import QueryHandle
from repro.errors import QueryError
from repro.ids import BPID, QueryId
from repro.net.address import IPAddress
from repro.storm.heapfile import RecordId


def make_handle(**kwargs):
    return QueryHandle(
        query_id=QueryId(BPID("liglo", 0), 0),
        keyword="jazz",
        issued_at=10.0,
        **kwargs,
    )


def answer(node_id, count=1, hops=1, payload=b"x"):
    items = tuple(
        AnswerItem(rid=RecordId(0, i), keywords=("jazz",), size=len(payload),
                   payload=payload)
        for i in range(count)
    )
    return AnswerMessage(
        query_id=QueryId(BPID("liglo", 0), 0),
        responder=BPID("liglo", node_id),
        responder_address=IPAddress(f"10.0.0.{node_id}"),
        hops=hops,
        items=items,
    )


class TestLifecycle:
    def test_record_and_finish(self):
        handle = make_handle()
        handle.record_answer(answer(1, count=2), now=11.0)
        handle.record_answer(answer(2, count=3), now=12.5)
        assert handle.network_answer_count == 5
        assert handle.completion_time == 2.5
        handle.mark_finished(now=13.0)
        assert handle.finished
        assert handle.finished_at == 13.0

    def test_record_after_finish_raises(self):
        handle = make_handle()
        handle.mark_finished(now=11.0)
        with pytest.raises(QueryError):
            handle.record_answer(answer(1), now=12.0)

    def test_double_finish_raises(self):
        handle = make_handle()
        handle.mark_finished(now=11.0)
        with pytest.raises(QueryError):
            handle.mark_finished(now=12.0)

    def test_empty_handle_properties(self):
        handle = make_handle()
        assert handle.completion_time is None
        assert handle.last_arrival is None
        assert handle.responders == set()
        assert handle.network_answer_count == 0
        assert handle.distinct_answer_count == 0

    def test_answers_by_responder_accumulates(self):
        handle = make_handle()
        handle.record_answer(answer(1, count=2), now=11.0)
        handle.record_answer(answer(1, count=3), now=11.5)
        handle.record_answer(answer(2, count=1), now=12.0)
        assert handle.responders == {BPID("liglo", 1), BPID("liglo", 2)}
        assert handle.network_answer_count == 6

    def test_arrivals_pairs(self):
        handle = make_handle()
        first = answer(1)
        handle.record_answer(first, now=11.0)
        assert handle.arrivals() == [(11.0, first)]
