"""The sender NIC as a departure clock, checked against a queueing NIC.

A host's uplink is a float, ``nic_free_at``: a packet sent at ``now``
departs at ``max(now, nic_free_at) + size / bandwidth`` and one kernel
event fires at ``departure + latency``.  The reference below is the
model that clock replaced: a ``FifoServer(capacity=1)`` per sender whose
completion callback schedules the arrival ``latency`` later.  Random send
programs (hosts, sizes, send instants, per-pair bandwidth and latency)
must give bit-identical arrival times.  On top of that:

* packets between one pair of hosts arrive in the order they were sent;
* packets arriving at the same instant fire in send order;
* the loss draw and the partition check happen at arrival: a packet
  sent before a partition and arriving inside it is cut, the loss RNG
  is consumed in arrival order, and each drop is counted at its
  arrival time.

Every packet travels under its own protocol name, so each trace record
names the packet it is about.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.client_server import CsQuery
from repro.net import LinkModel, Network
from repro.sim import FifoServer, Simulator
from repro.util.randomness import derive_rng
from repro.util.tracing import Tracer

LOSS_SEED = 7

#: Multiples of 1/1024 s, and wire sizes of 100-300 bytes at 102,400 B/s
#: (a transmission of k/1024 s), add up exactly, so same-instant arrivals
#: from different senders are common; the floats make the arithmetic awkward.
TICK = 1 / 1024
INSTANTS = st.one_of(
    st.sampled_from([0.0, TICK, 2 * TICK, 4 * TICK]),
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
)
LATENCIES = st.one_of(
    st.sampled_from([0.0, TICK, 3 * TICK]),
    st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
)
BANDWIDTHS = st.one_of(
    st.just(102_400.0),
    st.floats(min_value=1e3, max_value=1e8, allow_nan=False),
)
#: payload lengths whose wire size is 100, 200 and 300 bytes (see ``payload``)
ROUND_SIZES = st.sampled_from([5, 105, 205])
SIZES = st.one_of(ROUND_SIZES, st.integers(min_value=0, max_value=2000))


def payload(size: int) -> CsQuery:
    """A registered message whose frame is ``size + 15`` bytes."""
    return CsQuery(0, "x" * (size + 1))


@dataclass(frozen=True)
class Send:
    at: float
    src: int
    dst: int
    size: int


@st.composite
def programs(draw, lossy=False):
    hosts = draw(st.integers(min_value=2, max_value=4))
    pairs = [(a, b) for a in range(hosts) for b in range(hosts) if a != b]
    links = {
        pair: LinkModel(
            latency=draw(LATENCIES),
            bandwidth=draw(BANDWIDTHS),
            loss_probability=draw(st.sampled_from([0.0, 0.5, 1.0])) if lossy else 0.0,
        )
        for pair in pairs
    }
    sends = draw(
        st.lists(
            st.builds(
                lambda at, pair, size: Send(at, *pair, size),
                INSTANTS,
                st.sampled_from(pairs),
                SIZES,
            ),
            min_size=1,
            max_size=25,
        )
    )
    return hosts, links, sends


def run_network(hosts, links, sends, partition=None):
    """Run ``sends`` on the real fabric.

    Returns the wire sizes, the arrivals as ``(time, packet)`` in firing
    order, each packet's outcome (``"delivered"`` or the drop reason) with
    the time it was recorded, and the network.
    """
    sim = Simulator()
    network = Network(sim, tracer=Tracer(), loss_seed=LOSS_SEED)
    nodes = [network.create_host(f"h{i}", dispatch_time=0.0) for i in range(hosts)]
    for (a, b), link in links.items():
        network.set_link(nodes[a].address, nodes[b].address, link)
    for index in range(len(sends)):
        for node in nodes:
            node.bind(f"p{index}", lambda packet: None)
    if partition is not None:
        groups, start, end = partition
        sim.schedule_at(start, network.partition, [[f"h{i}" for i in g] for g in groups])
        sim.schedule_at(end, network.heal_partition)

    arrivals: list[tuple[float, int]] = []
    arrive = network._arrive

    def spy(packet, link):
        arrivals.append((sim.now, int(packet.protocol[1:])))
        arrive(packet, link)

    network._arrive = spy
    sizes: dict[int, int] = {}

    def send(index: int) -> None:
        s = sends[index]
        sizes[index] = nodes[s.src].send(nodes[s.dst].address, f"p{index}", payload(s.size))

    for index, s in enumerate(sends):
        sim.schedule_at(s.at, send, index)
    sim.run()
    outcomes = {}
    for event in network.tracer.events:
        if event.label in ("deliver", "drop") and event.category == "net":
            index = int(event.get("protocol")[1:])
            assert index not in outcomes, "a packet had two fates"
            reason = "delivered" if event.label == "deliver" else event.get("reason")
            outcomes[index] = (reason, event.time)
    return sizes, arrivals, outcomes, network


def reference_arrivals(links, sends, sizes):
    """Arrival time of each packet under a ``FifoServer(capacity=1)`` NIC."""
    sim = Simulator()
    nics: dict[int, FifoServer] = {}
    arrivals: dict[int, float] = {}

    def arrive(index: int) -> None:
        arrivals[index] = sim.now

    def propagate(index: int) -> None:
        s = sends[index]
        sim.schedule(links[s.src, s.dst].latency, arrive, index)

    def submit(index: int) -> None:
        s = sends[index]
        nic = nics.setdefault(s.src, FifoServer(sim, capacity=1))
        nic.submit(links[s.src, s.dst].transmission_time(sizes[index]), propagate, index)

    for index, s in enumerate(sends):
        sim.schedule_at(s.at, submit, index)
    sim.run()
    return arrivals


def send_order(sends):
    """Packet indices in the order the program sends them."""
    return sorted(range(len(sends)), key=lambda index: (sends[index].at, index))


@settings(max_examples=150, deadline=None)
@given(programs())
def test_arrivals_match_a_fifo_server_nic_bit_for_bit(program):
    hosts, links, sends = program
    sizes, arrivals, outcomes, network = run_network(hosts, links, sends)
    expected = reference_arrivals(links, sends, sizes)
    assert dict((index, time) for time, index in arrivals) == expected
    assert {index: time for index, (_, time) in outcomes.items()} == expected
    assert all(reason == "delivered" for reason, _ in outcomes.values())
    assert network.packets_delivered == len(sends)
    # One pair shares a NIC and a link, so its packets arrive in send order.
    rank = {index: position for position, index in enumerate(send_order(sends))}
    for pair in links:
        seen = [index for _, index in arrivals if (sends[index].src, sends[index].dst) == pair]
        assert seen == sorted(seen, key=rank.__getitem__)


@settings(max_examples=150, deadline=None)
@given(programs())
def test_same_instant_arrivals_fire_in_send_order(program):
    hosts, links, sends = program
    _, arrivals, _, _ = run_network(hosts, links, sends)
    rank = {index: position for position, index in enumerate(send_order(sends))}
    assert arrivals == sorted(arrivals, key=lambda item: (item[0], rank[item[1]]))


def test_tie_between_two_senders_goes_to_the_first_sent():
    # The packet sent first is the longer transmission over the shorter
    # link, so it departs second; both land on h2 at exactly 4/1024 s.
    # Send order, not departure order, decides.
    links = {
        (a, b): LinkModel(latency=(3 if a == 1 else 1) * TICK, bandwidth=102_400.0)
        for a in range(3)
        for b in range(3)
        if a != b
    }
    sends = [Send(0.0, 0, 2, 205), Send(0.0, 1, 2, 5)]
    sizes, arrivals, _, _ = run_network(3, links, sends)
    assert sizes == {0: 300, 1: 100}
    assert arrivals == [(4 * TICK, 0), (4 * TICK, 1)]


@settings(max_examples=150, deadline=None)
@given(
    programs(lossy=True),
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
)
def test_loss_and_partition_are_judged_at_arrival(program, start, length):
    hosts, links, sends = program
    end = start + length
    groups = [[0], list(range(1, hosts))]
    sizes, arrivals, outcomes, network = run_network(
        hosts, links, sends, partition=(groups, start, end)
    )
    expected = reference_arrivals(links, sends, sizes)
    loss_rng = derive_rng(LOSS_SEED, "packet-loss")
    drops: dict[str, int] = {}
    for time, index in arrivals:
        s = sends[index]
        link = links[s.src, s.dst]
        if link.loss_probability > 0.0 and loss_rng.random() < link.loss_probability:
            fate = "loss"
        elif start <= time < end and (s.src == 0) != (s.dst == 0):
            fate = "partition"
        else:
            fate = "delivered"
        assert outcomes[index] == (fate, expected[index])
        if fate != "delivered":
            drops[fate] = drops.get(fate, 0) + 1
    assert network.drops_by_reason == drops
    assert network.packets_dropped == sum(drops.values())
    assert network.packets_delivered + network.packets_dropped == len(sends)


def test_packet_sent_before_a_partition_is_cut_when_it_arrives_inside_it():
    link = LinkModel(latency=0.01, bandwidth=1e6)
    links = {(0, 1): link, (1, 0): link}
    sends = [Send(0.0, 0, 1, 10), Send(0.02, 0, 1, 10)]
    _, _, outcomes, network = run_network(2, links, sends, partition=([[0], [1]], 0.005, 0.02))
    assert outcomes[0][0] == "partition" and outcomes[0][1] > 0.01
    assert outcomes[1][0] == "delivered"
    assert network.drops_by_reason == {"partition": 1}
