"""Microbenchmarks for the wire path: encoding cache + compact codec.

Four sections, all persisted into ``BENCH_wire.json``:

* ``fan_out`` — the :class:`~repro.util.serialization.WireEncoder`
  identity cache on a flood fan-out (one payload object, many
  recipients): encode once vs encode per recipient.
* ``control_plane`` — the compact struct-packed codec vs the legacy
  pickle+gzip path on a mixed stream of registered control messages
  (LIGLO handshakes, Gnutella descriptors, fetch/data tokens,
  state-only agent envelopes).  The compact path must be at least 2x
  faster per encode+decode round trip, and — the invariant everything
  else rests on — both codec modes must charge identical wire sizes.
* ``data_plane`` — the streaming data codec vs pickle+gzip on an
  answer-heavy stream (batched answers, fetch/data replies, sourced
  envelopes): the bytes that dominate a flood at scale.  Reported as
  bytes-encoded throughput; the stream path must be at least 2x.
* ``end_to_end_flood`` — wall-clock of a message-heavy 32-node flood
  with the codec registries populated vs emptied (the legacy wire path).

``REPRO_BENCH_SCALE=smoke`` shrinks the workloads for CI smoke runs; a
smoke run neither asserts speedups (scheduler noise dominates tiny
workloads) nor overwrites the persisted artifact.
"""

from __future__ import annotations

import json
import os
import random
import time

from benchmarks.support import RESULTS_DIR, SMOKE
from repro.net import datacodec
from repro.net.codec import (
    decode_message,
    encode_message,
    load_registrations,
    registered_specs,
    try_encode,
)
from repro.util.compression import DEFAULT_CODEC
from repro.util.serialization import WireEncoder, deserialize, serialize

#: distinct payloads (think: distinct queries crossing the network)
PAYLOADS = 20 if SMOKE else 200
#: recipients per payload (think: flood fan-out degree)
FAN_OUT = 8 if SMOKE else 32
#: control messages per codec timing round
CONTROL_ROUNDS = 20 if SMOKE else 400
#: data-plane messages per codec timing round
DATA_ROUNDS = 5 if SMOKE else 150

BENCH_PATH = os.path.join(RESULTS_DIR, "BENCH_wire.json")


def _write_section(section: str, payload: dict) -> None:
    """Read-modify-write one section of ``BENCH_wire.json``.

    Smoke runs never touch the artifact: the persisted numbers are the
    full-scale evidence cited by docs/PERFORMANCE.md.
    """
    if SMOKE:
        return
    document = {"name": "wire"}
    if os.path.exists(BENCH_PATH):
        try:
            with open(BENCH_PATH) as handle:
                existing = json.load(handle)
            if isinstance(existing, dict) and isinstance(
                existing.get("fan_out"), dict
            ):
                document = existing
        except (OSError, json.JSONDecodeError):
            pass
    document[section] = payload
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(BENCH_PATH, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Section 1: the fan-out encoding cache
# ---------------------------------------------------------------------------


def _payloads() -> list[dict]:
    return [
        {
            "query": f"keyword-{index}",
            "state": {"visited": list(range(index % 17)), "hops": index % 7},
            "body": bytes(range(256)) * 4,
        }
        for index in range(PAYLOADS)
    ]


def _encode_all(encoder: WireEncoder) -> tuple[list[int], float]:
    payloads = _payloads()
    start = time.perf_counter()
    sizes = [
        encoder.encode(payload).compressed_size
        for payload in payloads
        for _ in range(FAN_OUT)
    ]
    return sizes, time.perf_counter() - start


def test_wire_encoder_fan_out(benchmark):
    cached = WireEncoder(DEFAULT_CODEC)
    uncached = WireEncoder(DEFAULT_CODEC, capacity=0)

    cached_sizes, cached_seconds = benchmark.pedantic(
        lambda: _encode_all(cached), rounds=1, iterations=1
    )
    uncached_sizes, uncached_seconds = _encode_all(uncached)

    # The cache may only change speed, never bytes.
    assert cached_sizes == uncached_sizes
    assert cached.hits == PAYLOADS * (FAN_OUT - 1)
    assert cached.misses == PAYLOADS
    assert uncached.hits == 0

    speedup = uncached_seconds / cached_seconds
    _write_section(
        "fan_out",
        {
            "payloads": PAYLOADS,
            "fan_out": FAN_OUT,
            "cached_seconds": round(cached_seconds, 4),
            "uncached_seconds": round(uncached_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )
    print(f"\nwire fan-out: cached {cached_seconds:.4f}s "
          f"vs uncached {uncached_seconds:.4f}s ({speedup:.1f}x)")
    # Fan-out should be far more than 2x faster encoded-once.
    if not SMOKE:
        assert speedup > 2.0


# ---------------------------------------------------------------------------
# Section 2: compact codec vs pickle+gzip on control messages
# ---------------------------------------------------------------------------


def _control_messages() -> list:
    """A mixed control-plane stream: every registered sample, repeated."""
    load_registrations()
    samples = [spec.sample() for spec in registered_specs()]
    return [message for _ in range(CONTROL_ROUNDS) for message in samples]


def _time_compact(messages: list) -> float:
    start = time.perf_counter()
    for message in messages:
        decode_message(encode_message(message))
    return time.perf_counter() - start


def _time_pickle_gzip(messages: list) -> float:
    codec = DEFAULT_CODEC
    start = time.perf_counter()
    for message in messages:
        raw = serialize(message)
        codec.compress(raw)  # the legacy path sizes via gzip
        deserialize(raw)
    return time.perf_counter() - start


def test_control_plane_codec(benchmark):
    messages = _control_messages()

    compact_seconds = benchmark.pedantic(
        lambda: _time_compact(messages), rounds=1, iterations=1
    )
    pickle_seconds = _time_pickle_gzip(messages)

    # Every registered message is charged its compact-frame size.
    samples = [spec.sample() for spec in registered_specs()]
    compact_sizes = [
        WireEncoder(DEFAULT_CODEC, capacity=0).encode(m).compressed_size
        for m in samples
    ]
    assert compact_sizes == [len(try_encode(m)) for m in samples]

    speedup = pickle_seconds / compact_seconds
    per_message_us = compact_seconds / len(messages) * 1e6
    _write_section(
        "control_plane",
        {
            "messages": len(messages),
            "message_types": len(registered_specs()),
            "compact_seconds": round(compact_seconds, 4),
            "pickle_gzip_seconds": round(pickle_seconds, 4),
            "speedup": round(speedup, 2),
            "compact_us_per_message": round(per_message_us, 2),
        },
    )
    print(f"\ncontrol plane: compact {compact_seconds:.4f}s "
          f"vs pickle+gzip {pickle_seconds:.4f}s ({speedup:.1f}x, "
          f"{per_message_us:.1f}us/msg)")
    # The headline claim: >=2x on the control-plane round trip.
    if not SMOKE:
        assert speedup >= 2.0


# ---------------------------------------------------------------------------
# Section 3: streaming data codec vs pickle+gzip on answer-heavy traffic
# ---------------------------------------------------------------------------


def _data_messages() -> list:
    """An answer-dominated data-plane stream, deterministic via seed 7.

    The mix mirrors what a flood actually ships back: batched direct-mode
    answers with object payloads, fetch/data replies, and the occasional
    sourced agent envelope.
    """
    from repro.agents.envelope import AgentEnvelope
    from repro.agents.messages import AnswerItem, AnswerMessage, BatchedAnswers
    from repro.core.sharing import FetchReply
    from repro.core.shipping import DataReply
    from repro.ids import BPID, QueryId
    from repro.net.address import IPAddress
    from repro.storm.heapfile import RecordId

    datacodec.load_registrations()
    rng = random.Random(7)

    def answer(serial: int, items: int) -> AnswerMessage:
        origin = BPID("10.0.0.1", 7)
        return AnswerMessage(
            query_id=QueryId(origin, serial),
            responder=BPID("10.0.0.2", 9),
            responder_address=IPAddress("10.0.4.9"),
            hops=rng.randrange(1, 7),
            items=tuple(
                AnswerItem(
                    rid=RecordId(serial, index),
                    keywords=("music", f"kw-{index}"),
                    size=1024,
                    payload=rng.randbytes(1024),
                )
                for index in range(items)
            ),
        )

    sourced = datacodec.lookup(AgentEnvelope).sample().with_source(
        "class SearchAgent:\n"
        + "    def execute(self, node):\n"
        + "        return node.match(self.state['keyword'])\n" * 8
    )
    messages: list = []
    for round_index in range(DATA_ROUNDS):
        messages.append(
            BatchedAnswers([answer(round_index * 8 + i, 3) for i in range(4)])
        )
        messages.append(answer(round_index * 8 + 7, 2))
        messages.append(
            FetchReply(
                token=round_index,
                rid=RecordId(round_index, 0),
                payload=rng.randbytes(1024),
                found=True,
            )
        )
        messages.append(
            DataReply(
                token=round_index,
                objects=(
                    (("music",), rng.randbytes(1024)),
                    (("video",), rng.randbytes(1024)),
                ),
            )
        )
        messages.append(sourced)
    return messages


def _time_stream(messages: list) -> tuple[int, float]:
    from repro.agents.messages import BatchedAnswers

    start = time.perf_counter()
    total = 0
    for message in messages:
        frame = datacodec.encode_message(message)
        total += len(frame)
        decoded = datacodec.decode_message(frame)
        if isinstance(decoded, BatchedAnswers):
            decoded.answers  # charge the full round trip, not the lazy shell
    return total, time.perf_counter() - start


def _time_pickle_gzip_data(messages: list) -> tuple[int, float]:
    codec = DEFAULT_CODEC
    start = time.perf_counter()
    total = 0
    for message in messages:
        raw = serialize(message)
        total += len(codec.compress(raw))  # the legacy path sizes via gzip
        deserialize(raw)
    return total, time.perf_counter() - start


def test_data_plane_codec(benchmark):
    messages = _data_messages()

    stream_bytes, stream_seconds = benchmark.pedantic(
        lambda: _time_stream(messages), rounds=1, iterations=1
    )
    pickle_bytes, pickle_seconds = _time_pickle_gzip_data(messages)

    stream_mbps = stream_bytes / stream_seconds / 1e6
    pickle_mbps = pickle_bytes / pickle_seconds / 1e6
    throughput_ratio = stream_mbps / pickle_mbps
    speedup = pickle_seconds / stream_seconds
    _write_section(
        "data_plane",
        {
            "messages": len(messages),
            "stream_seconds": round(stream_seconds, 4),
            "pickle_gzip_seconds": round(pickle_seconds, 4),
            "stream_mb_per_s": round(stream_mbps, 1),
            "pickle_gzip_mb_per_s": round(pickle_mbps, 1),
            "throughput_ratio": round(throughput_ratio, 2),
            "speedup": round(speedup, 2),
        },
    )
    print(f"\ndata plane: stream {stream_seconds:.4f}s ({stream_mbps:.0f} MB/s) "
          f"vs pickle+gzip {pickle_seconds:.4f}s ({pickle_mbps:.0f} MB/s, "
          f"{throughput_ratio:.1f}x throughput)")
    # The headline claim: >=2x bytes-encoded throughput on the data plane.
    if not SMOKE:
        assert throughput_ratio >= 2.0


# ---------------------------------------------------------------------------
# Section 4: end-to-end — a flood-dominated deployment, codec vs legacy
# ---------------------------------------------------------------------------


def _flood_seconds(queries: int, nodes: int = 32) -> float:
    from repro.core.builder import build_network
    from repro.core.config import BestPeerConfig
    from repro.topology.builders import star

    deployment = build_network(
        nodes,
        config=BestPeerConfig(max_direct_peers=nodes, strategy="static"),
        topology=star(nodes),
    )
    # Every node matches, so each query floods out and 1KB direct-mode
    # answers stream back from all over the overlay — the answer-heavy
    # shape the data plane exists for.
    rng = random.Random(7)
    for index, node in enumerate(deployment.nodes):
        node.share(["needle", f"extra-{index}"], rng.randbytes(1024))
    start = time.perf_counter()
    for _ in range(queries):
        handle = deployment.base.issue_query("needle")
        deployment.sim.run()
        deployment.base.finish_query(handle)
    return time.perf_counter() - start


def test_end_to_end_flood(benchmark):
    """Wall-clock of a message-heavy flood, compact codec vs the legacy
    pickle+gzip wire path (simulated by emptying the codec registry).

    This is deliberately a small-store workload: figure runs at paper
    scale are dominated by loading 1000x1KB objects per node into StorM,
    which no wire codec can speed up (see docs/PERFORMANCE.md)."""
    from repro.net import codec as wire

    queries = 5 if SMOKE else 40
    rounds = 1 if SMOKE else 3
    load_registrations()
    datacodec.load_registrations()
    _flood_seconds(2)  # warm imports and caches

    # Interleave rounds and keep the best of each: at this scale (a
    # fraction of a second per round) scheduler noise would otherwise
    # dominate the comparison.
    saved_by_id, saved_by_class = dict(wire._BY_ID), dict(wire._BY_CLASS)
    saved_data_by_id = dict(datacodec._BY_ID)
    saved_data_by_class = dict(datacodec._BY_CLASS)
    compact_times: list[float] = []
    legacy_times: list[float] = []
    for _ in range(rounds):
        compact_times.append(
            benchmark.pedantic(lambda: _flood_seconds(queries), rounds=1, iterations=1)
            if not compact_times
            else _flood_seconds(queries)
        )
        try:
            wire._BY_ID.clear()
            wire._BY_CLASS.clear()
            datacodec._BY_ID.clear()
            datacodec._BY_CLASS.clear()
            legacy_times.append(_flood_seconds(queries))
        finally:
            wire._BY_ID.update(saved_by_id)
            wire._BY_CLASS.update(saved_by_class)
            datacodec._BY_ID.update(saved_data_by_id)
            datacodec._BY_CLASS.update(saved_data_by_class)
    compact_seconds = min(compact_times)
    legacy_seconds = min(legacy_times)

    gain = (legacy_seconds - compact_seconds) / legacy_seconds
    _write_section(
        "end_to_end_flood",
        {
            "queries": queries,
            "nodes": 32,
            "compact_seconds": round(compact_seconds, 4),
            "legacy_seconds": round(legacy_seconds, 4),
            "gain_percent": round(gain * 100, 1),
        },
    )
    print(f"\nend-to-end flood: compact {compact_seconds:.4f}s "
          f"vs legacy {legacy_seconds:.4f}s ({gain:+.1%})")
    # The gain is workload-dependent; just pin that compact never loses
    # meaningfully (>10% regression would mean the codec hurts).
    assert compact_seconds < legacy_seconds * 1.10
