"""Tests for repro.util.serialization."""

from hypothesis import given
from hypothesis import strategies as st

from repro.ids import BPID, AgentId, QueryId
from repro.util.serialization import deserialize, serialize


def test_round_trip_basic_types():
    for obj in [None, 42, 3.14, "text", b"bytes", [1, 2], {"a": 1}, (1, "x")]:
        assert deserialize(serialize(obj)) == obj


def test_round_trip_ids():
    bpid = BPID("liglo-0", 7)
    agent_id = AgentId(bpid, 3)
    query_id = QueryId(bpid, 9)
    assert deserialize(serialize(bpid)) == bpid
    assert deserialize(serialize(agent_id)) == agent_id
    assert deserialize(serialize(query_id)) == query_id


@given(
    st.recursive(
        st.none() | st.integers() | st.text(max_size=30) | st.binary(max_size=30),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=5), children, max_size=4),
        max_leaves=20,
    )
)
def test_round_trip_property(obj):
    assert deserialize(serialize(obj)) == obj
