"""Measure one workload in this process: the child side of ``run.py``.

Closed loop, one client: set-ups, warm-ups and ops run one after the
other, each bracketed by calibration slices (``calibrate.Meter``).
After each op — outside the timing — the counters the program exposes
are read, the op's outputs are checked and its simulated observables
are folded into ``sim_digest``.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from collections import Counter
from typing import Any, Callable

from perfledger import calibrate, scenarios, trace

#: Run length the op counts in scenarios.py are written for.
NOMINAL_SECONDS = 10


class Harness:
    """Runs a workload's phases and keeps the books."""

    def __init__(self, workload: scenarios.Workload, tracer: trace.Tracer | None):
        from repro.net.network import Network

        self.workload = workload
        self.tracer = tracer
        self.meter = calibrate.Meter()
        self.registry = trace.Registry()
        self.registry.watch(Network)
        if tracer is not None:
            from repro.core.node import BestPeerNode
            from repro.storm.store import StorM

            trace.install(tracer)
            # Held until the next checkpoint, so a traced run's memory is
            # not comparable; the untraced run holds networks only.
            self.registry.watch(BestPeerNode)
            self.registry.watch(StorM)
        #: phase -> counter -> amount gained while that phase was timed
        self.counts: dict[str, Counter[str]] = {"setup": Counter(), "op": Counter()}
        self._phase: str | None = None
        self._previous: Counter[str] = Counter()

    # -- what a workload may call while one of its ops is being timed --------
    # (the clock is stopped while the books are done)

    def end_of_setup(self) -> None:
        """The op's own set-up is done (workloads that build per op)."""
        self.meter.lap("setup")
        self._chore(self._harvest)
        if self._phase is not None:  # not a warm-up
            self._enter("op")

    def checkpoint(self) -> None:
        """The deployments built so far are finished: read their counters,
        let them go and collect them, so that peak memory does not depend
        on when the cyclic collector happens to run."""

        def chore() -> None:
            self.release()
            gc.collect()

        self._chore(chore)

    def _chore(self, chore: Callable[[], None]) -> None:
        if self.tracer is not None:
            tracer = self.tracer
            self.meter.untimed(lambda: tracer.call(trace.CHORE, trace.DRIVER, chore, (), {}))
        else:
            self.meter.untimed(chore)

    def release(self) -> None:
        """Read the counters of everything built so far, then let it go."""
        self._harvest()
        self.registry.forget()
        self._previous = Counter(self.tracer.noted if self.tracer is not None else {})

    # -- bookkeeping ----------------------------------------------------------

    def _enter(self, phase: str | None) -> None:
        self._phase = phase
        if self.tracer is not None:
            self.tracer.phase(phase or "discard")

    def _harvest(self) -> None:
        """Credit the current phase with what the counters gained."""
        current = trace.read_counters(self.registry, self.tracer)
        if self._phase is not None:
            bucket = self.counts[self._phase]
            for key, value in current.items():
                bucket[key] += value - self._previous[key]
        self._previous = current

    def timed(self, phase: str | None, body: Callable[[], Any]) -> tuple[Any, calibrate.Sample]:
        """Time ``body`` in ``phase`` (None: a warm-up, nothing is kept)."""
        self._enter(phase)
        if self.tracer is not None and phase is not None:
            tracer, root = self.tracer, f"{phase}:{self.workload.name}"
            outcome, sample = self.meter.measure(
                lambda: tracer.call(root, trace.DRIVER, body, (), {})
            )
        else:
            outcome, sample = self.meter.measure(body)
        self._harvest()
        self._enter(None)
        return outcome, sample


def measure(
    name: str, seed: int, seconds: int, smoke: bool, traced: bool, short: bool,
    trace_file: str | None,
) -> dict:  # fmt: skip
    """Run workload ``name`` once; returns the raw result ``run.py`` reports from."""
    workload = next(cls for cls in scenarios.WORKLOADS if cls.name == name)(seed, smoke)
    tracer = trace.Tracer() if traced else None
    harness = Harness(workload, tracer)
    groups = workload.groups
    rounds = max(1, round(workload.ops / groups * seconds / NOMINAL_SECONDS))
    setup_reps = workload.setup_reps
    if short:
        rounds = (rounds + 1) // 2
        setup_reps = min(setup_reps, 1)
    ops = rounds * groups

    setup_samples = []
    for _ in range(setup_reps):
        workload.discard()
        harness.release()
        _, sample = harness.timed("setup", workload.setup)
        setup_samples.append(sample)

    warmup_samples = []
    for index in range(workload.warmups):
        _, sample = harness.timed(None, lambda: workload.warmup(index, harness))
        warmup_samples.append(sample)

    op_samples = []
    packets = 0
    attempted = failed = 0
    errors: Counter[str] = Counter()
    digest = hashlib.sha256()
    op_digests = []
    first_phase = "op" if workload.setup_reps else "setup"
    for index in range(ops):
        if workload.deployment_per_op:
            harness.release()
        sampling = tracer is not None and trace_file is not None and index == ops // 2
        if sampling:
            tracer.spans = []
        before = Counter(harness.counts["op"])
        outcome, sample = harness.timed(first_phase, lambda: workload.op(index, harness))
        if sampling:
            trace.write_chrome_trace(trace_file, tracer.spans)
            tracer.spans = None
        op_samples.append(sample)
        harness.counts["op"].update(outcome.counts)
        errors.update(outcome.errors)
        attempted += outcome.attempted
        failed += outcome.failed
        gained = {
            key: value - before[key]
            for key, value in sorted(harness.counts["op"].items())
            if key.startswith("net.")
        }
        packets += gained.get("net.packets_delivered", 0)
        host_bytes = [
            [host.bytes_sent for host in network.hosts.values()]
            for network in outcome.networks
        ]
        digest.update(repr((outcome.observed, gained, host_bytes)).encode())
        op_digests.append(digest.hexdigest()[:16])

    if workload.setup_reps:
        setup_s = calibrate.calibrated_median(setup_samples)
        # ops come in rounds of ``groups`` kinds: sum the per-kind medians
        op_s = sum(
            calibrate.calibrated_median(op_samples[group::groups]) for group in range(groups)
        )
    else:
        setup_s = calibrate.calibrated_median(op_samples, lap="setup")
        op_s = calibrate.calibrated_median(op_samples, lap="setup", rest=True)
    packets_per_op = packets / rounds
    kept = setup_samples + op_samples
    every = kept + warmup_samples
    op_ms = sorted(sample.calibrated * 1e3 for sample in op_samples)
    result = {
        "workload": workload.name,
        "seed": seed,
        "setup_reps": setup_reps if workload.setup_reps else ops,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "op_digests": op_digests,
        "sim_digest": digest.hexdigest(),
        "packets_per_op": packets_per_op,
        "e2e": {
            "setup_s": setup_s,
            "op_ms": op_s * 1e3,
            "us_per_packet": op_s / packets_per_op * 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "noisy_share": calibrate.noisy_share(kept),
        "driver": {
            "driver.calibration_ms": statistics.median(
                [
                    unit
                    for sample in every
                    for unit in sample.slice_before + sample.ticks + sample.slice_after
                ]
            )
            * 1e3,
            "driver.noisy_ops": sum(sample.noisy for sample in kept),
            "driver.warmup_ms": warmup_samples[0].calibrated * 1e3,
            "driver.query_ms_p50": statistics.median(op_ms),
            "driver.query_ms_p90": op_ms[min(len(op_ms) - 1, int(0.9 * len(op_ms)))],
        },
        "samples": {
            "setup": [sample.as_dict() for sample in setup_samples],
            "warmup": [sample.as_dict() for sample in warmup_samples],
            "op": [sample.as_dict() for sample in op_samples],
        },
    }
    if tracer is not None:
        result["layers"] = layer_tables(harness, setup_samples, op_samples, rounds, setup_reps)
    return result


def layer_tables(
    harness: Harness,
    setup_samples: list[calibrate.Sample],
    op_samples: list[calibrate.Sample],
    rounds: int,
    setup_reps: int,
) -> dict:
    """Span totals and counters as per-phase tables, per set-up and per op round.

    Times become calibrated seconds with the phase's own factor
    (calibrated over raw seconds of its samples).  Each parent part is
    relieved of what its child spans' wrappers added to it
    (``wrapper_s`` in total), so the parts of a phase add up to
    ``traced_s - wrapper_s``, ``traced_s`` being the traced counterpart
    of ``setup_s`` / ``op_ms``.
    """
    child_cost = harness.tracer.child_cost()
    if harness.workload.setup_reps:
        calibrated_s = {
            "setup": sum(s.calibrated for s in setup_samples),
            "op": sum(s.calibrated for s in op_samples),
        }
        units = {"setup": setup_reps, "op": rounds}
    else:
        heads = sum(s.laps["setup"] * s.factor for s in op_samples)
        calibrated_s = {"setup": heads, "op": sum(s.calibrated for s in op_samples) - heads}
        units = {"setup": rounds, "op": rounds}
    # Chores ran with the clock stopped: they are not part of any phase.
    totals = {
        phase: {
            key: record
            for key, record in harness.tracer.phases.get(phase, {}).items()
            if key[0] != trace.CHORE
        }
        for phase in ("setup", "op")
    }
    raw_s = {phase: sum(self_s for _calls, self_s in totals[phase].values()) for phase in totals}
    tables: dict[str, Any] = {
        # The root span of every timed body must cover what the meter timed.
        "check": {
            "span_s": sum(raw_s.values()),
            "clock_s": sum(s.wall + sum(s.ticks) for s in setup_samples + op_samples),
        }
    }
    for phase, unit_count in units.items():
        # Spans are raw seconds and include the ticks that fired inside
        # them; scaling the phase's raw total to its calibrated total
        # removes both at once.
        scale = (calibrated_s[phase] / raw_s[phase] if raw_s[phase] else 0.0) / unit_count
        parts = {part: {"self_s": 0.0, "calls": 0.0} for part in trace.PARTS}
        by_parent: dict[str, float] = {}
        spans: dict[str, dict[str, float]] = {}
        for (name, part, parent), (calls, self_s) in totals[phase].items():
            parts[part]["self_s"] += self_s * scale
            parts[part]["calls"] += calls / unit_count
            edge = f"{part}<-{parent or 'root'}"
            by_parent[edge] = by_parent.get(edge, 0.0) + self_s * scale
            span = spans.setdefault(name, {"calls": 0.0, "self_s": 0.0})
            span["calls"] += calls / unit_count
            span["self_s"] += self_s * scale
        traced_s = calibrated_s[phase] / unit_count
        wrapper_s = 0.0
        for (_name, _part, parent), (calls, _self_s) in totals[phase].items():
            if parent:
                relief = min(calls * child_cost * scale, parts[parent]["self_s"])
                parts[parent]["self_s"] -= relief
                wrapper_s += relief
        for entry in parts.values():
            entry["share"] = entry["self_s"] / (traced_s - wrapper_s) if traced_s else 0.0
        tables[phase] = {
            "traced_s": traced_s,
            "wrapper_s": wrapper_s,
            "parts": parts,
            "by_parent": dict(sorted(by_parent.items(), key=lambda item: -item[1])),
            "spans": dict(sorted(spans.items(), key=lambda item: -item[1]["self_s"])),
            "counts": {
                key: value / unit_count for key, value in sorted(harness.counts[phase].items())
            },
        }
    return tables
