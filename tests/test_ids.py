"""Tests for identifier types and the error hierarchy."""

import pytest

import repro.errors as errors
from repro.ids import BPID, AgentId, QueryId


class TestBPID:
    def test_equality_and_hash(self):
        assert BPID("liglo-a", 1) == BPID("liglo-a", 1)
        assert BPID("liglo-a", 1) != BPID("liglo-b", 1)
        assert BPID("liglo-a", 1) != BPID("liglo-a", 2)
        assert len({BPID("x", 1), BPID("x", 1), BPID("y", 1)}) == 2

    def test_str_format(self):
        assert str(BPID("10.0.0.1", 42)) == "10.0.0.1/42"

    def test_same_node_id_different_liglo_distinct(self):
        """'Two nodes can register to two different servers and be
        assigned the same name' - the pair is what is unique."""
        a = BPID("server-a", 0)
        b = BPID("server-b", 0)
        assert a != b
        assert a.node_id == b.node_id

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BPID("x", 1).node_id = 5


class TestDerivedIds:
    def test_agent_id(self):
        origin = BPID("l", 3)
        assert str(AgentId(origin, 7)) == "agent:l/3#7"
        assert AgentId(origin, 7) == AgentId(BPID("l", 3), 7)

    def test_query_id(self):
        origin = BPID("l", 3)
        assert str(QueryId(origin, 9)) == "query:l/3#9"
        assert QueryId(origin, 1) != AgentId(origin, 1)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_catching_the_family(self):
        with pytest.raises(errors.ReproError):
            raise errors.BufferFullError("full")
        with pytest.raises(errors.StormError):
            raise errors.RecordNotFound("gone")
        with pytest.raises(errors.BestPeerError):
            raise errors.AccessDeniedError("no")
