"""The value-object contract of the identifiers that ride on every packet.

``IPAddress`` and ``AgentId`` write out their ``__eq__`` / ``__hash__``
instead of taking the dataclass-generated ones (which build a tuple per
call).  Every way of coming by a value — built directly, decoded from a
control frame or a data frame, unpickled, deep-copied — must give one
that equals the original and hashes like it, or route tables and the
flood dedup set would treat one address or agent as two.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.agents.envelope import MODE_FLOOD, AgentEnvelope, freeze_state
from repro.ids import BPID, AgentId, QueryId
from repro.net import codec
from repro.net.address import IPAddress
from repro.net.codec import _is_frozen_dataclass

ORIGIN = BPID("10.0.0.1", 7)

#: field of the envelope below -> the value built directly
DIRECT = {
    "initiator_address": IPAddress("10.0.4.2"),
    "initiator": ORIGIN,
    "agent_id": AgentId(ORIGIN, 3),
    "query_id": QueryId(ORIGIN, 1),
}


def _envelope(source: str | None) -> AgentEnvelope:
    # Fresh objects, not the ones in DIRECT: equality must be by value.
    origin = BPID("10.0.0.1", 7)
    return AgentEnvelope(
        agent_id=AgentId(origin, 3),
        class_name="DemoAgent",
        source=source,
        state=freeze_state({"keyword": "music"}),
        ttl=5,
        hops=2,
        initiator=origin,
        initiator_address=IPAddress("10.0.4.2"),
        query_id=QueryId(origin, 1),
        mode=MODE_FLOOD,
        path=(),
    )


def _control_frame() -> AgentEnvelope:
    envelope = _envelope(source=None)
    return codec.decode_message(codec.encode_message(envelope))


def _data_frame() -> AgentEnvelope:
    envelope = _envelope(source="class DemoAgent:\n    pass\n")
    return codec.decode_message(codec.encode_message(envelope))


MAKERS = {
    "direct": lambda name: getattr(_envelope(None), name),
    "control-frame": lambda name: getattr(_control_frame(), name),
    "data-frame": lambda name: getattr(_data_frame(), name),
    "pickle": lambda name: pickle.loads(pickle.dumps(DIRECT[name])),
    "deepcopy": lambda name: copy.deepcopy(DIRECT[name]),
}


@pytest.mark.parametrize("maker", sorted(MAKERS))
@pytest.mark.parametrize("name", sorted(DIRECT))
def test_equal_values_hash_equal_however_they_were_made(name, maker):
    expected = DIRECT[name]
    value = MAKERS[maker](name)
    assert type(value) is type(expected)
    assert value is not expected
    assert value == expected and not value != expected
    assert hash(value) == hash(expected)
    assert len({value, expected}) == 1
    assert {expected: "found"}[value] == "found"


@pytest.mark.parametrize(
    "value, other",
    [
        (IPAddress("10.0.0.1"), IPAddress("10.0.0.2")),
        (BPID("10.0.0.1", 7), BPID("10.0.0.1", 8)),
        (BPID("10.0.0.1", 7), BPID("10.0.0.2", 7)),
        (AgentId(ORIGIN, 3), AgentId(ORIGIN, 4)),
        (AgentId(ORIGIN, 3), AgentId(BPID("10.0.0.1", 8), 3)),
        (QueryId(ORIGIN, 1), QueryId(ORIGIN, 2)),
    ],
)
def test_different_values_are_unequal(value, other):
    assert value != other and not value == other
    assert len({value, other}) == 2


def test_values_of_different_types_never_compare_equal():
    assert IPAddress("10.0.0.1") != "10.0.0.1"
    assert "10.0.0.1" != IPAddress("10.0.0.1")
    assert IPAddress("10.0.0.1") != ("10.0.0.1",)
    assert AgentId(ORIGIN, 1) != QueryId(ORIGIN, 1)
    assert QueryId(ORIGIN, 1) != AgentId(ORIGIN, 1)
    assert len({IPAddress("10.0.0.1"), "10.0.0.1"}) == 2


@pytest.mark.parametrize("name", sorted(DIRECT))
def test_fields_stay_frozen(name):
    value = DIRECT[name]
    field_name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field_name, None)


@pytest.mark.parametrize("cls", [IPAddress, BPID, AgentId, QueryId])
def test_codec_still_accepts_them_as_deeply_immutable(cls):
    assert _is_frozen_dataclass(cls)
