"""``PendingRequests`` answers exactly what the hand-written ladders did.

``BestPeerNode`` used to spell out send -> expire -> retry -> reply once
per request family.  :class:`ReferenceLadders` below *is* that code for
two of them — ``fetch`` (expiry timers left to fire) and ``data`` (timer
cancelled on reply, dropped once its query handle finished) — sharing
one token counter, as they did.  :class:`HelperLadders` says the same
two families the way the node says them now.  Both face an identical
scripted server under identical traces; everything observable must match.
"""

import random
from itertools import count, cycle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sharing import PROTO_FETCH, PROTO_FETCH_REPLY, FetchReply, FetchRequest
from repro.core.shipping import (
    PROTO_DATA_REPLY,
    PROTO_DATA_REQUEST,
    DataReply,
    DataRequest,
)
from repro.errors import HostOffline
from repro.net import Network
from repro.net.requests import PendingRequests
from repro.sim import Simulator
from repro.storm.heapfile import RecordId
from repro.util.retry import RetryPolicy

TIMEOUT = 1.0
RID = RecordId(0, 0)
POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.25, multiplier=2.0, max_delay=2.0, jitter=0.1
)


class ReferenceLadders:
    """The former ``BestPeerNode`` fetch and data ladders, verbatim."""

    def __init__(self, host, policy, rng, log):
        self.host = host
        self.sim = host.sim
        self.policy = policy
        self.rng = rng
        self.log = log
        self._fetch_tokens = count()
        self._pending_fetches = {}
        self._pending_data = {}
        self.request_timeouts = {}
        self.retries = 0
        host.bind(PROTO_FETCH_REPLY, self._on_fetch_reply)
        host.bind(PROTO_DATA_REPLY, self._on_data_reply)

    def pending(self):
        return len(self._pending_fetches), len(self._pending_data)

    def _charge_timeout(self, kind):
        self.request_timeouts[kind] = self.request_timeouts.get(kind, 0) + 1

    def _retries_left(self, failures):
        return self.policy is not None and self.policy.should_retry(failures)

    def _retry_after(self, failures):
        return self.policy.delay(failures, self.rng)

    def fetch(self, holder, callback):
        self._send_fetch(holder, callback, failures=0)

    def _send_fetch(self, holder, callback, failures):
        token = next(self._fetch_tokens)
        self._pending_fetches[token] = (callback, holder, failures)
        self.host.send(holder, PROTO_FETCH, FetchRequest(token, RID))
        self.sim.schedule(TIMEOUT, self._expire_fetch, token)

    def _retry_fetch(self, holder, callback, failures):
        if not self.host.online:
            callback(None)
            return
        self._send_fetch(holder, callback, failures)

    def _on_fetch_reply(self, packet):
        record = self._pending_fetches.pop(packet.payload.token, None)
        if record is None:
            return
        record[0](packet.payload)

    def _expire_fetch(self, token):
        record = self._pending_fetches.pop(token, None)
        if record is None:
            return
        callback, holder, failures = record
        failures += 1
        self._charge_timeout("fetch")
        if self._retries_left(failures):
            self.retries += 1
            self.sim.schedule(
                self._retry_after(failures), self._retry_fetch, holder, callback, failures
            )
            return
        callback(None)

    def request_data(self, handle, address):
        self._send_data_request(handle, address, failures=0)

    def _send_data_request(self, handle, address, failures):
        token = next(self._fetch_tokens)
        timer = self.sim.schedule(TIMEOUT, self._expire_data, token)
        self._pending_data[token] = (handle, address, failures, timer)
        self.host.send(address, PROTO_DATA_REQUEST, DataRequest(token))

    def _retry_data(self, handle, address, failures):
        if not self.host.online or handle.finished:
            return
        self._send_data_request(handle, address, failures)

    def _expire_data(self, token):
        pending = self._pending_data.pop(token, None)
        if pending is None:
            return
        handle, address, failures, _timer = pending
        failures += 1
        self._charge_timeout("data")
        if not handle.finished and self._retries_left(failures):
            self.retries += 1
            self.sim.schedule(
                self._retry_after(failures), self._retry_data, handle, address, failures
            )
            return
        if not handle.finished:
            self.log.append(("degraded", self.sim.now, handle.name))

    def _on_data_reply(self, packet):
        pending = self._pending_data.pop(packet.payload.token, None)
        if pending is None:
            return
        handle, _address, _failures, timer = pending
        timer.cancel()
        self.log.append(("data", self.sim.now, handle.name, packet.payload.token))


class HelperLadders:
    """The same two families on one :class:`PendingRequests` table."""

    def __init__(self, host, policy, rng, log):
        self.host = host
        self.log = log
        self.requests = PendingRequests(host, policy, rng)
        self.request_timeouts = {}
        host.bind(PROTO_FETCH_REPLY, self._on_fetch_reply)
        host.bind(PROTO_DATA_REPLY, self._on_data_reply)

    @property
    def retries(self):
        return self.requests.retries

    def pending(self):
        return len(self.requests.pending("fetch")), len(self.requests.pending("data"))

    def _charge_timeout(self, kind):
        self.request_timeouts[kind] = self.request_timeouts.get(kind, 0) + 1

    def fetch(self, holder, callback):
        self.requests.send(
            "fetch",
            lambda token: self.host.send(holder, PROTO_FETCH, FetchRequest(token, RID)),
            TIMEOUT,
            context=callback,
            on_timeout=lambda: self._charge_timeout("fetch"),
            on_offline=lambda: callback(None),
            on_give_up=lambda: callback(None),
        )

    def _on_fetch_reply(self, packet):
        entry = self.requests.settle(packet.payload.token, "fetch")
        if entry is not None:
            entry.context(packet.payload)

    def request_data(self, handle, address):
        self.requests.send(
            "data",
            lambda token: self.host.send(address, PROTO_DATA_REQUEST, DataRequest(token)),
            TIMEOUT,
            context=handle,
            on_timeout=lambda: self._charge_timeout("data"),
            abandoned=lambda: handle.finished,
            on_give_up=lambda: self.log.append(
                ("degraded", self.host.sim.now, handle.name)
            ),
        )

    def _on_data_reply(self, packet):
        entry = self.requests.settle(packet.payload.token, "data")
        if entry is None:
            return
        entry.timer.cancel()
        self.log.append(
            ("data", self.host.sim.now, entry.context.name, packet.payload.token)
        )


class World:
    """One client running ``ladders`` against a server that follows a script.

    ``answers`` is consumed one item per request the server receives:
    ``reply`` answers it, ``drop`` loses the reply, ``cross`` answers
    with the *other* family's reply type under the same token.
    """

    def __init__(self, ladders, policy, answers):
        self.sim = Simulator()
        network = Network(self.sim)
        self.client = network.create_host("client")
        self.server = network.create_host("server")
        self.answers = cycle(answers)
        self.log = []
        self.tokens = []
        self.handles = []
        self.rng = random.Random(2002)
        self.ladders = ladders(self.client, policy, self.rng, self.log)
        self.server.bind(PROTO_FETCH, self._serve)
        self.server.bind(PROTO_DATA_REQUEST, self._serve)

    def _serve(self, packet):
        token = packet.payload.token
        self.tokens.append((packet.protocol, token))
        answer = next(self.answers)
        if answer == "drop":
            return
        as_fetch = (packet.protocol == PROTO_FETCH) == (answer == "reply")
        if as_fetch:
            self.server.send(
                packet.src, PROTO_FETCH_REPLY, FetchReply(token, RID, b"x", True)
            )
        else:
            self.server.send(packet.src, PROTO_DATA_REPLY, DataReply(token, ()))

    # -- trace operations (``pick`` is an arbitrary small integer) ----------

    def fetch(self, pick):
        if self.client.online:  # sending offline raises; see the leak tests
            number = len(self.log)
            self.ladders.fetch(
                self.server.address,
                lambda reply: self.log.append(
                    ("fetch", self.sim.now, number, reply and reply.token)
                ),
            )

    def data(self, pick):
        if self.client.online:
            handle = SimpleNamespace(name=len(self.handles), finished=False)
            self.handles.append(handle)
            self.ladders.request_data(handle, self.server.address)

    def finish(self, pick):
        if self.handles:
            self.handles[pick % len(self.handles)].finished = True

    def offline(self, pick):
        if self.client.online:
            self.client.disconnect()

    def online(self, pick):
        if not self.client.online:
            self.client.connect()

    def run(self, pick):
        self.sim.run(until=self.sim.now + 0.3 * (pick % 8))

    def observed(self):
        return {
            "log": self.log,
            "tokens": self.tokens,
            "rng": self.rng.getstate(),
            "retries": self.ladders.retries,
            "timeouts": self.ladders.request_timeouts,
            "pending": self.ladders.pending(),
            "now": self.sim.now,
        }


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["fetch", "fetch", "data", "data", "finish", "offline", "online", "run", "run"]
        ),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=40,
)
ANSWERS = st.lists(
    st.sampled_from(["reply", "reply", "drop", "drop", "cross"]), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(ops=OPS, answers=ANSWERS, policy=st.sampled_from([None, POLICY]))
def test_helper_equals_the_former_ladders(ops, answers, policy):
    worlds = [World(ReferenceLadders, policy, answers), World(HelperLadders, policy, answers)]
    for world in worlds:
        for op, pick in ops:
            getattr(world, op)(pick)
        world.sim.run()
    reference, helper = (world.observed() for world in worlds)
    assert helper == reference
    assert helper["pending"] == (0, 0)
    assert all(world.sim.pending_events == 0 for world in worlds)


def test_trace_reaches_every_branch():
    """The property above is only as good as what its traces exercise."""
    script = ["drop", "cross", "reply"] + ["drop"] * 3 + ["drop", "reply"]
    world = World(HelperLadders, POLICY, script)
    world.fetch(0)  # lost, then a data reply under its token, then answered
    world.sim.run()
    world.data(0)  # lost three times: retried twice, then degraded
    world.sim.run()
    world.data(0)  # lost once, then abandoned while the retry backs off
    world.run(4)  # 1.2 s: past the timeout, before the re-send
    world.finish(1)
    world.sim.run()
    world.data(0)  # answered: its timer is cancelled, the run ends early
    world.sim.run()
    assert [entry[0] for entry in world.log] == ["fetch", "degraded", "data"]
    assert world.log[0][3] == 2  # the fetch was settled by its third token
    assert len(world.tokens) == 8 and world.ladders.retries == 5
    assert world.ladders.request_timeouts == {"fetch": 2, "data": 4}
    assert world.sim.now < world.log[2][1] + TIMEOUT
    world.data(0)  # lost, and abandoned before it even expires: charged, dropped
    world.finish(3)
    world.sim.run()
    assert len(world.log) == 3 and world.ladders.retries == 5
    assert world.ladders.request_timeouts == {"fetch": 2, "data": 5}
    assert world.ladders.pending() == (0, 0)


class TestTable:
    def rig(self, policy=None):
        sim = Simulator()
        host = Network(sim).create_host("host")
        return sim, host, PendingRequests(host, policy)

    def test_tokens_are_drawn_per_send_across_kinds(self):
        _sim, _host, requests = self.rig()
        sent = []
        for kind in ("a", "b", "a"):
            requests.send(kind, sent.append, TIMEOUT)
        assert sent == [0, 1, 2]
        assert sorted(requests.pending("a")) == [0, 2]
        assert sorted(requests.pending("b")) == [1]

    def test_reply_of_another_kind_settles_nothing(self):
        _sim, _host, requests = self.rig()
        requests.send("a", lambda token: None, TIMEOUT, context="mine")
        assert requests.settle(0, "b") is None
        assert list(requests.pending("a")) == [0]
        assert requests.settle(0, "a").context == "mine"
        assert requests.settle(0, "a") is None

    def test_settle_leaves_the_timer_to_the_family(self):
        sim, _host, requests = self.rig()
        requests.send("a", lambda token: None, TIMEOUT)
        entry = requests.settle(0, "a")
        assert not entry.timer.cancelled and sim.pending_events == 1
        sim.run()  # the dead timer fires and finds nothing
        assert sim.now == TIMEOUT and entry.failures == 0

    def test_late_reply_and_unknown_tokens_are_no_ops(self):
        sim, _host, requests = self.rig()
        gave_up = []
        requests.send("a", lambda token: None, TIMEOUT, on_give_up=lambda: gave_up.append(sim.now))
        sim.run()
        assert gave_up == [TIMEOUT]
        assert requests.settle(0, "a") is None  # the reply came after expiry
        requests.expire(0)
        requests.expire(999)
        assert gave_up == [TIMEOUT]

    def test_transmit_that_raises_withdraws_the_entry(self):
        sim, host, requests = self.rig(POLICY)
        host.disconnect()
        hooks = []
        with pytest.raises(HostOffline):
            requests.send(
                "a",
                lambda token: host.send(host.address, "x", token),
                TIMEOUT,
                on_timeout=lambda: hooks.append("timeout"),
                on_give_up=lambda: hooks.append("gave up"),
            )
        assert requests.pending("a") == {} and sim.pending_events == 0
        sim.run()
        assert hooks == [] and requests.retries == 0
        requests.send("a", lambda token: None, TIMEOUT)
        assert list(requests.pending("a")) == [1]  # the failed send used token 0

    def test_single_shot_ignores_the_policy(self):
        sim, _host, requests = self.rig(POLICY)
        sent, gave_up = [], []
        requests.send(
            "a", sent.append, TIMEOUT, retry=False, on_give_up=lambda: gave_up.append(sim.now)
        )
        sim.run()
        assert sent == [0] and gave_up == [TIMEOUT] and requests.retries == 0

    def test_host_offline_at_resend_tells_the_family_instead(self):
        sim, host, requests = self.rig(POLICY)
        sent, hooks = [], []
        requests.send(
            "a",
            sent.append,
            TIMEOUT,
            on_retry=lambda: hooks.append("retry"),
            on_offline=lambda: hooks.append("offline"),
            on_give_up=lambda: hooks.append("gave up"),
        )
        sim.schedule(TIMEOUT + 0.01, host.disconnect)  # during the backoff
        sim.run()
        assert sent == [0] and hooks == ["retry", "offline"]
        assert requests.retries == 1 and requests.pending("a") == {}
