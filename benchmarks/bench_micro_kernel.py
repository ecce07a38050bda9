"""Event-kernel microbenchmarks: schedule/fire/cancel, serial vs sharded.

Classic multi-round pytest-benchmark measurements of the kernel hot
paths the sharded executor leans on:

* a schedule/fire/cancel mix on the serial kernel — every fired event
  schedules two successors and cancels one of them, so half the heap is
  dead weight and the compaction sweep must keep ``pending_events``
  exact while the heap stays bounded;
* the same mix run through the lockstep sharded executor (one chain per
  shard, fixed lookahead), measuring the facade's bookkeeping overhead;
* barrier post/flush throughput: cross-shard messages injected through
  the shared-sequence path.

Full-scale runs persist a ``kernel`` section into
``BENCH_scaling.json`` (same artifact as the scaling figure) with
events/second and the sharded-over-serial overhead factor.
``REPRO_BENCH_SCALE=smoke`` shrinks the workloads and skips the
persist.
"""

import time

from benchmarks.support import SMOKE, merge_section
from repro.sim import ShardedSimulator, Simulator

#: events fired per measured run
EVENTS = 2_000 if SMOKE else 20_000

_results: dict[str, float] = {}


def _mix_serial() -> int:
    """Fire EVENTS events; each schedules two successors, cancels one."""
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1
        if fired[0] >= EVENTS:
            return
        sim.schedule(0.001, tick)
        sim.schedule(0.002, tick).cancel()

    sim.schedule(0.001, tick)
    sim.run()
    return fired[0]


def _mix_sharded(shard_count: int) -> int:
    """The same mix, one independent chain per shard, lockstep executor."""
    sharded = ShardedSimulator(shard_count, lookahead=10.0)
    per_shard = EVENTS // shard_count
    fired = [0] * shard_count

    def make_tick(shard: int):
        sim = sharded.shards[shard]

        def tick():
            fired[shard] += 1
            if fired[shard] >= per_shard:
                return
            sim.schedule(0.001, tick)
            sim.schedule(0.002, tick).cancel()

        return tick

    for shard in range(shard_count):
        sharded.shards[shard].schedule(0.001, make_tick(shard))
    sharded.run()
    return sum(fired)


def _barrier_throughput(shard_count: int, messages: int) -> int:
    """Post cross-shard messages and run them to completion."""
    sharded = ShardedSimulator(shard_count, lookahead=0.5)
    delivered = [0]

    def receive():
        delivered[0] += 1

    for index in range(messages):
        sharded.post(
            index % shard_count,
            (index + 1) % shard_count,
            1.0 + index * 0.001,
            receive,
        )
    sharded.run()
    return delivered[0]


def test_kernel_mix_serial(benchmark):
    fired = benchmark(_mix_serial)
    assert fired == EVENTS
    _results["serial_events_per_second"] = EVENTS / benchmark.stats["mean"]


def test_kernel_mix_sharded_2(benchmark):
    fired = benchmark(lambda: _mix_sharded(2))
    assert fired == (EVENTS // 2) * 2
    _results["lockstep2_events_per_second"] = EVENTS / benchmark.stats["mean"]


def test_kernel_mix_sharded_4(benchmark):
    fired = benchmark(lambda: _mix_sharded(4))
    assert fired == (EVENTS // 4) * 4
    _results["lockstep4_events_per_second"] = EVENTS / benchmark.stats["mean"]


def test_barrier_post_throughput(benchmark):
    messages = EVENTS // 2
    delivered = benchmark(lambda: _barrier_throughput(2, messages))
    assert delivered == messages
    _results["barrier_messages_per_second"] = messages / benchmark.stats["mean"]


def test_compaction_keeps_heap_bounded():
    """Cancel-heavy load: the swept heap stays near the live count."""
    sim = Simulator()
    live = []
    for index in range(10_000):
        timer = sim.schedule(1.0 + index, lambda: None)
        if index % 10 == 0:
            live.append(timer)
        else:
            timer.cancel()
    assert sim.pending_events == len(live)
    assert len(sim._heap) <= 2 * len(live) + sim.COMPACTION_MIN_HEAP


def test_zz_persist_kernel_section():
    """Runs last (name-ordered): persist what the mixes measured."""
    if SMOKE or len(_results) < 4:
        return
    overhead2 = _results["serial_events_per_second"] / _results[
        "lockstep2_events_per_second"
    ]
    overhead4 = _results["serial_events_per_second"] / _results[
        "lockstep4_events_per_second"
    ]
    merge_section(
        "scaling",
        "kernel",
        {
            "events": EVENTS,
            "serial_events_per_second": round(
                _results["serial_events_per_second"]
            ),
            "lockstep2_events_per_second": round(
                _results["lockstep2_events_per_second"]
            ),
            "lockstep4_events_per_second": round(
                _results["lockstep4_events_per_second"]
            ),
            "lockstep2_overhead": round(overhead2, 3),
            "lockstep4_overhead": round(overhead4, 3),
            "barrier_messages_per_second": round(
                _results["barrier_messages_per_second"]
            ),
            "measured_at": time.strftime("%Y-%m-%d"),
        },
    )
