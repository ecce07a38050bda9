"""Request tokens never outlive their exchange, whatever goes wrong."""

import pytest

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.core.node import FETCH_TIMEOUT
from repro.core.sharing import PROTO_ACTIVE_REPLY, ActiveReply
from repro.errors import HostOffline
from repro.liglo import messages as m
from repro.net.address import IPAddress
from repro.storm.heapfile import RecordId
from repro.topology.builders import line
from repro.util.retry import RetryPolicy

POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.25, multiplier=2.0, max_delay=1.0, jitter=0.0
)
NOBODY = IPAddress("10.9.9.9")
PENDING_KEYS = ("pending_fetches", "pending_actives", "pending_data", "pending_liglo")


def deploy():
    config = BestPeerConfig(retry_policy=POLICY)
    net = build_network(3, config=config, topology=line(3))
    net.sim.run()
    return net


def pending(node):
    stats = node.statistics()
    return {key: stats[key] for key in PENDING_KEYS if stats[key]}


#: family -> start one request of it on ``node`` (its LIGLO at ``liglo``)
REQUESTS = {
    "fetch": lambda node, liglo, done: node.fetch(NOBODY, RecordId(0, 0), done),
    "active": lambda node, liglo, done: node.request_active(NOBODY, "doc", "pw", done),
    "resolve": lambda node, liglo, done: node.liglo.resolve(node.bpid, done),
    "register": lambda node, liglo, done: node.liglo.register(liglo, done),
    "hint": lambda node, liglo, done: node.liglo.fetch_hints("kw", done),
}


@pytest.mark.parametrize("family", sorted(REQUESTS))
def test_first_send_from_an_offline_host_leaves_nothing_pending(family):
    net = deploy()
    node = net.nodes[1]
    liglo = net.liglo_servers[0].host.address
    node.leave()
    events = net.sim.pending_events
    outcomes = []
    with pytest.raises(HostOffline):
        REQUESTS[family](node, liglo, outcomes.append)
    assert pending(node) == {}
    assert node.liglo.pending_counts() == {"registers": 0, "resolves": 0, "hints": 0}
    assert net.sim.pending_events == events
    net.sim.run()
    assert outcomes == []  # the caller got the exception, not a callback


class TestRepliesOnlySettleTheirOwnKind:
    def test_active_reply_under_a_fetch_token(self):
        net = deploy()
        node, peer = net.nodes[0], net.nodes[1]
        outcomes = []
        node.fetch(NOBODY, RecordId(0, 0), outcomes.append)
        (token,) = node.requests.pending("fetch")
        peer.host.send(
            node.host.address, PROTO_ACTIVE_REPLY, ActiveReply(token, "doc", b"x", True)
        )
        net.sim.run(until=net.sim.now + 0.5)
        assert outcomes == [] and pending(node) == {"pending_fetches": 1}
        net.sim.run()
        assert outcomes == [None] and pending(node) == {}

    def test_hint_reply_under_a_resolve_token(self):
        net = deploy()
        node = net.nodes[0]
        server = net.liglo_servers[0].host
        server.suspend()  # the resolve itself goes unanswered
        outcomes = []
        node.liglo.resolve(net.nodes[1].bpid, outcomes.append)
        (token,) = node.liglo.requests.pending("resolve")
        net.nodes[1].host.send(
            node.host.address, m.PROTO_HINT_REPLY, m.HintReply(token, "kw")
        )
        net.sim.run(until=net.sim.now + 0.5)
        assert outcomes == [] and pending(node) == {"pending_liglo": 1}
        net.sim.run()
        assert outcomes == [None] and pending(node) == {}


def test_reply_after_the_last_expiry_is_ignored():
    net = deploy()
    node, peer = net.nodes[0], net.nodes[1]
    outcomes = []
    node.request_active(NOBODY, "doc", "pw", outcomes.append)
    tokens = []
    while node.requests.pending("active"):  # first send, then one retry
        tokens.extend(node.requests.pending("active"))
        net.sim.run(until=net.sim.now + FETCH_TIMEOUT + 0.5)
    assert outcomes == [None] and len(tokens) == POLICY.max_attempts
    for token in tokens:
        peer.host.send(
            node.host.address, PROTO_ACTIVE_REPLY, ActiveReply(token, "doc", b"x", True)
        )
    net.sim.run()
    assert outcomes == [None] and pending(node) == {}
