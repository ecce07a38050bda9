"""The per-packet trace records are guarded by ``tracer.enabled``: an
enabled tracer sees exactly what it always saw, a disabled one no longer
makes the packet path format addresses and agent ids."""

from __future__ import annotations

from repro import BestPeerConfig, build_network, random_graph
from repro.agents.storm_agent import StorMSearchAgent
from repro.baselines.client_server import CsDone
from repro.ids import AgentId
from repro.net.address import IPAddress
from repro.net.message import PACKET_OVERHEAD_BYTES, Packet
from repro.net.network import Network
from repro.sim import Simulator
from repro.util.tracing import NULL_TRACER, Tracer

from tests.agents.helpers import AgentRig

GUARDED = {("net", "send"), ("net", "deliver"), ("agent", "dedup"), ("agent", "execute")}

AGENT, ANSWER = "bestpeer.agent", "bestpeer.answer"
AGENT_ID = "agent:liglo-test/0#0"
A, B, C = "10.0.0.0", "10.0.0.1", "10.0.0.2"

#: The guarded events of the triangle flood below, recorded on the commit
#: before the guards went in (``size`` values left out: they depend on
#: the zlib build).  A ``net send`` record carries the packet's departure
#: time but is written when the packet is queued, since the NIC has no
#: completion event to write it from; so b's and c's forwards now sit
#: right after the delivery that triggered them, ahead of the execute
#: record of the same visit.  Every record is unchanged; the timestamps
#: moved once since, when the rig began dispatching under a query id
#: (28 more envelope bytes) and the answer became a data frame instead
#: of a gzip-priced pickle.
TRIANGLE_EVENTS = [
    (0.0007472, "net", "send", (("src", A), ("dst", B), ("protocol", AGENT))),
    (0.0014944, "net", "send", (("src", A), ("dst", C), ("protocol", AGENT))),
    (0.0057472, "net", "deliver", (("host", "b"), ("protocol", AGENT), ("src", A))),
    (0.0064944, "net", "send", (("src", B), ("dst", C), ("protocol", AGENT))),
    (0.0057472, "agent", "execute", (("agent", AGENT_ID), ("hops", 1), ("service", 0.011))),
    (0.0064944, "net", "deliver", (("host", "c"), ("protocol", AGENT), ("src", A))),
    (0.0072416, "net", "send", (("src", C), ("dst", B), ("protocol", AGENT))),
    (0.0064944, "agent", "execute", (("agent", AGENT_ID), ("hops", 1), ("service", 0.011))),
    (0.0114944, "net", "deliver", (("host", "c"), ("protocol", AGENT), ("src", B))),
    (0.0114944, "agent", "dedup", (("agent", AGENT_ID),)),
    (0.0122416, "net", "deliver", (("host", "b"), ("protocol", AGENT), ("src", C))),
    (0.0122416, "agent", "dedup", (("agent", AGENT_ID),)),
    (0.0169144, "net", "send", (("src", B), ("dst", A), ("protocol", ANSWER))),
    (0.0219144, "net", "deliver", (("host", "a"), ("protocol", ANSWER), ("src", B))),
]


def test_enabled_tracer_records_what_it_always_did():
    rig = AgentRig()
    a, b, c = rig.add("a"), rig.add("b"), rig.add("c")
    rig.link(a, b)
    rig.link(b, c)
    rig.link(c, a)
    b.put_objects("k", 1)
    a.dispatch(StorMSearchAgent("k"))
    rig.sim.run()
    recorded = [e for e in rig.tracer.events if (e.category, e.label) in GUARDED]
    assert [
        (
            round(event.time, 9),
            event.category,
            event.label,
            tuple(item for item in event.fields if item[0] != "size"),
        )
        for event in recorded
    ] == TRIANGLE_EVENTS
    for event in recorded:
        if event.category == "net":
            assert event.fields[-1][0] == "size" and type(event.fields[-1][1]) is int
            assert type(event.get("src")) is str  # formatted, not the address object
        else:
            assert type(event.get("agent")) is str


def test_disabled_tracer_formats_nothing_on_the_packet_path(monkeypatch):
    nodes = 50
    deployment = build_network(
        nodes,
        config=BestPeerConfig(max_direct_peers=16, strategy="static", ttl=24),
        topology=random_graph(nodes, degree=4, seed=2),
    )
    assert deployment.network.tracer is NULL_TRACER
    deployment.nodes[nodes - 1].share(["needle"], b"x" * 68)
    delivered = deployment.network.packets_delivered
    # The dispatch itself still formats its one agent id per query; the
    # packet path is everything the kernel runs from here on.
    handle = deployment.base.issue_query("needle")
    formatted = []
    for cls in (IPAddress, AgentId):
        original = cls.__str__

        def counting(self, original=original):
            formatted.append(type(self).__name__)
            return original(self)

        monkeypatch.setattr(cls, "__str__", counting)
    deployment.sim.run()
    deployment.base.finish_query(handle)
    assert len(handle.answers) == 1
    assert deployment.network.packets_delivered - delivered > 2 * nodes
    assert formatted == []


def _drop_one(tracer, monkeypatch):
    """Send alice -> a departed bob (a no-route drop) and a corrupt frame
    alice -> carol (a decode-error drop); returns (network, formatted)."""
    sim = Simulator()
    network = Network(sim, tracer=tracer)
    alice, bob, carol = (network.create_host(name) for name in ("alice", "bob", "carol"))
    carol.bind("p", lambda packet: packet.payload)
    gone = bob.address
    bob.disconnect()
    formatted = []
    original = IPAddress.__str__

    def counting(self):
        formatted.append(self)
        return original(self)

    monkeypatch.setattr(IPAddress, "__str__", counting)
    alice.send(gone, "p", CsDone(0))
    corrupt = b"\x00not a frame"
    carol._receive(
        Packet(
            alice.address, carol.address, "p", len(corrupt) + PACKET_OVERHEAD_BYTES,
            sim.now, corrupt,
        )
    )
    sim.run()
    assert network.drops_by_reason == {"no-route": 1, "decode-error": 1}
    assert network.packets_dropped == 1 and network.decode_errors == 1
    return network, formatted


def test_disabled_tracer_formats_nothing_for_drops(monkeypatch):
    _, formatted = _drop_one(NULL_TRACER, monkeypatch)
    assert formatted == []


def test_enabled_tracer_still_records_drops(monkeypatch):
    network, _ = _drop_one(Tracer(), monkeypatch)
    drops = list(network.tracer.select("net", "drop"))
    assert sorted((e.get("reason"), type(e.get("dst"))) for e in drops) == [
        ("decode-error", str),
        ("no-route", str),
    ]
    assert network.tracer.counter("net", "decode-error") == 1
