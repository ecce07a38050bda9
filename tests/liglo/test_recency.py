"""The LIGLO server's recency order answers exactly what the sort did.

``_initial_peer_list`` used to filter and sort every member on every
registration; it now walks a recency-ordered id set from the newest end.
The reference below *is* the former expression, ties included: the sort
was stable over ``members`` insertion order, so members seen at the same
instant come out in ascending node id.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_network
from repro.liglo import LigloServer
from repro.liglo import messages as m
from repro.net import Network
from repro.net.address import IPAddress
from repro.net.codec import encode_message
from repro.net.message import Packet
from repro.sim import Simulator


def reference_peer_list(server, initial_peers):
    online = [entry for entry in server.members.values() if entry.online]
    online.sort(key=lambda entry: entry.last_seen, reverse=True)
    return [(entry.bpid, entry.address) for entry in online[:initial_peers]]


class Driver:
    """Feeds one server hand-made packets, so the test owns the clock:
    everything between two ``tick`` calls carries the same timestamp."""

    def __init__(self, initial_peers=5):
        self.sim = Simulator()
        network = Network(self.sim)
        self.server = LigloServer(network.create_host("liglo"), initial_peers=initial_peers)
        self._sources = 0

    def _deliver(self, handler, payload):
        # Nobody owns these addresses: the server's replies and pings are
        # dropped as "no-route", which is all this test needs.
        self._sources += 1
        src = IPAddress(f"172.16.{self._sources // 256}.{self._sources % 256}")
        handler(
            Packet(
                src=src,
                dst=self.server.host.address,
                protocol="test",
                wire_size=0,
                sent_at=self.sim.now,
                raw=encode_message(payload),
            )
        )

    def _member(self, pick):
        members = list(self.server.members.values())
        return members[pick % len(members)] if members else None

    def register(self):
        self._deliver(self.server._on_register, m.RegisterRequest(token=0))

    def announce(self, pick):
        entry = self._member(pick)
        if entry is not None:
            self._deliver(self.server._on_announce, m.Announce(entry.bpid))

    def publish(self, pick):
        entry = self._member(pick)
        if entry is not None:
            self._deliver(
                self.server._on_hint_publish, m.HintPublish(entry.bpid, ("kw",))
            )

    def go_offline(self, pick):
        entry = self._member(pick)
        if entry is not None:
            entry.online = False

    def check(self):
        self.server._run_validity_check()

    def pong(self, pick):
        pending = self.server.requests.pending("ping")
        if pending:
            token = sorted(pending)[pick % len(pending)]
            bpid = self.server.members[pending[token].context].bpid
            self._deliver(self.server._on_pong, m.Pong(token, bpid))

    def tick(self):
        """Drain the kernel — unanswered pings expire — and move on."""
        self.sim.schedule(1.0, lambda: None)
        self.sim.run()

    def assert_matches_reference(self):
        server = self.server
        configured = server.initial_peers
        for initial_peers in (0, 1, 5, len(server.members) + 3):
            server.initial_peers = initial_peers
            assert server._initial_peer_list() == reference_peer_list(
                server, initial_peers
            )
        server.initial_peers = configured


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["register", "register", "register", "announce", "publish",
             "go_offline", "check", "pong", "pong", "tick"]
        ),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=OPS)
def test_peer_list_equals_the_former_sort(ops):
    driver = Driver()
    for op, pick in ops:
        if op in ("register", "check", "tick"):
            getattr(driver, op)()
        else:
            getattr(driver, op)(pick)
        driver.assert_matches_reference()


def test_offline_members_and_ties_across_groups():
    driver = Driver()
    for _ in range(3):
        for _ in range(4):
            driver.register()
        driver.tick()
    # Newest group is ids 8-11; knock out most of it so the walk has to
    # cross into the group before.
    for node_id in (9, 10, 11):
        driver.server.members[node_id].online = False
    peers = driver.server._initial_peer_list()
    assert [bpid.node_id for bpid, _ in peers] == [8, 4, 5, 6, 7]
    driver.assert_matches_reference()
    # Only the silent members of a validity sweep go offline; a pong
    # refreshes its member to the newest end.
    driver.check()
    driver.pong(0)  # lowest token: member 0
    driver.tick()
    assert [bpid.node_id for bpid, _ in driver.server._initial_peer_list()] == [0]
    driver.assert_matches_reference()


def test_forty_node_build_hands_the_next_node_32_to_36():
    # The LIGLO host serves registrations on 8 CPU threads, so members are
    # stamped in groups of eight equal timestamps; the newest group is
    # 32-39 and ties come out in ascending node id.
    deployment = build_network(40)
    (server,) = deployment.liglo_servers
    peers = server._initial_peer_list()
    assert [bpid.node_id for bpid, _ in peers] == [32, 33, 34, 35, 36]
    assert peers == reference_peer_list(server, server.initial_peers)


class CountingMembers(dict):
    """``members`` stand-in that counts every entry the server looks at."""

    visits = 0

    def __getitem__(self, node_id):
        self.visits += 1
        return super().__getitem__(node_id)

    def _whole(self, view):
        self.visits += len(self)
        return view

    def __iter__(self):
        return self._whole(super().__iter__())

    def values(self):
        return self._whole(super().values())

    def items(self):
        return self._whole(super().items())


def _server_with_members(count, initial_peers):
    driver = Driver(initial_peers=initial_peers)
    for index in range(count):
        driver.register()
        if index % 8 == 7:
            driver.tick()  # groups of eight tied timestamps, as in a build
    driver.server.members = CountingMembers(driver.server.members)
    return driver


def test_register_visits_a_constant_number_of_members():
    driver = _server_with_members(2000, initial_peers=5)
    driver.register()
    # Five wanted + the rest of their tie group of eight + the one entry
    # that shows the group has ended; nothing that grows with membership.
    assert 5 <= driver.server.members.visits <= 5 + 8 + 1
    assert len(driver.server.members) == 2001


def test_register_without_initial_peers_visits_nobody():
    driver = _server_with_members(2000, initial_peers=0)
    driver.register()
    assert driver.server.members.visits == 0


def test_offline_newest_members_are_skipped_not_scanned_past():
    driver = _server_with_members(2000, initial_peers=5)
    for node_id in range(1980, 2000):
        driver.server.members[node_id].online = False
    driver.server.members.visits = 0
    peers = driver.server._initial_peer_list()
    assert [bpid.node_id for bpid, _ in peers] == [1976, 1977, 1978, 1979, 1968]
    # Four tie groups of eight (twenty offline members among them) and
    # the entry that ends the fourth.
    assert driver.server.members.visits <= 4 * 8 + 1
