"""Per-layer attribution from outside: timing wrappers on public boundaries.

Nothing in ``src/`` knows about this file.  :func:`install` replaces, at
run time,

1. a fixed table of public entry points (:data:`ENTRY_POINTS`),
2. every handler passed to ``Host.bind``, and
3. every callback passed to ``Simulator.schedule`` /
   ``schedule_daemon`` / ``FifoServer.submit``,

with wrappers that push a span on a stack.  A span belongs to a *part*
(``"net.send"``, ``"codec.decode"``, ``"storm.search"`` ...; the text
before the dot is the layer, i.e. the ``src/repro`` package).  Handlers
and callbacks get the part that owns the callee's module
(:data:`CALLEE_PARTS`).  A span's *self time* is its duration minus the
time covered by its child spans, so the self times of all spans under
one root add up to the root's duration.  Totals are kept per
``(span name, part, parent part)``.

The wrappers cost time themselves, and almost all of it lands in the
*parent's* self time (a child measures only its own body), so parts
with many children — the kernel loop above all — would read high.
:meth:`Tracer.child_cost` measures what one child span adds to its
parent and the tables subtract it per child; what tracing costs end to
end is reported as ``driver.trace_overhead``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

#: Part of spans opened by the benchmark itself (the root of every op).
DRIVER = "driver"
#: Name of the spans around the benchmark's stopped-clock chores; they are
#: outside the measured time and the tables leave them out.
CHORE = "chore"

#: ``(module, attribute path, part)``: the public entry points wrapped by
#: name.  Module-level functions are rebound in every loaded module that
#: imported them; methods and properties are replaced on their class.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.builder", "build_network", "core.build"),
    ("repro.core.node", "BestPeerNode.share", "core.build"),
    ("repro.core.node", "BestPeerNode.share_many", "core.build"),
    ("repro.core.node", "BestPeerNode.issue_query", "core.query"),
    ("repro.core.node", "BestPeerNode.finish_query", "core.query"),
    ("repro.core.node", "BestPeerNode.leave", "core.query"),
    ("repro.core.node", "BestPeerNode.rejoin", "core.query"),
    ("repro.topology.builders", "random_graph", "topology.build"),
    ("repro.topology.builders", "star", "topology.build"),
    ("repro.sim.kernel", "Simulator.run", "sim"),
    ("repro.net.network", "Host.send", "net.send"),
    ("repro.util.serialization", "WireEncoder.encode", "codec.encode"),
    ("repro.net.message", "Packet.payload", "codec.decode"),
    ("repro.agents.engine", "AgentEngine.dispatch", "agents.dispatch"),
    ("repro.storm.store", "StorM.__init__", "storm.open"),
    ("repro.storm.store", "StorM.put", "storm.ingest"),
    ("repro.storm.store", "StorM.put_many", "storm.ingest"),
    ("repro.storm.template", "StoreTemplate.from_store", "storm.ingest"),
    ("repro.storm.store", "StorM.search", "storm.search"),
    ("repro.storm.store", "StorM.search_scan", "storm.search"),
    ("repro.storm.store", "StorM.scored_search", "storm.search"),
    ("repro.storm.store", "StorM.scored_search_scan", "storm.search"),
    ("repro.workloads.provision", "provision_store", "workloads.provision"),
    ("repro.liglo.client", "LigloClient.register_any", "liglo.client"),
    ("repro.liglo.client", "LigloClient.resolve", "liglo.client"),
    ("repro.liglo.client", "LigloClient.announce_verified", "liglo.client"),
    ("repro.liglo.client", "LigloClient.publish_hints", "liglo.client"),
    ("repro.replication.manager", "ReplicationManager.on_share", "replication"),
    ("repro.replication.manager", "ReplicationManager.flush_pending", "replication"),
    ("repro.replication.manager", "ReplicationManager.note_query_hits", "replication"),
    ("repro.replication.manager", "ReplicationManager.note_peer_alive", "replication"),
    ("repro.replication.manager", "ReplicationManager.replica_search", "replication"),
    ("repro.replication.manager", "ReplicationManager.self_answer", "replication"),
    ("repro.replication.manager", "ReplicationManager.cached_answers", "replication"),
    ("repro.replication.manager", "ReplicationManager.cache_answers", "replication"),
    ("repro.faults.injector", "SimFaultInjector.arm", "faults"),
    ("repro.baselines.client_server", "build_cs_network", "baselines"),
    ("repro.eval.figures", "figure_5a", "eval"),
    ("repro.eval.claims", "verify_figure", "eval"),
)

#: Entry points whose results are also counted: attribute path ->
#: (counter, amount as a function of the call's result).
WEIGHTS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "StorM.put": ("storm.objects_ingested", lambda rid: 1),
    "StorM.put_many": ("storm.objects_ingested", len),
}

#: ``(prefix of "module.qualname", part)`` for handlers and callbacks;
#: first match wins, anything outside ``repro`` is the benchmark's own.
CALLEE_PARTS: tuple[tuple[str, str], ...] = (
    ("repro.sim.", "sim"),
    ("repro.net.network.Network._propagate", "net.send"),
    ("repro.net.", "net.deliver"),
    ("repro.agents.", "agents.handle"),
    ("repro.liglo.server.", "liglo.server"),
    ("repro.liglo.", "liglo.client"),
    ("repro.core.", "core.query"),
    ("repro.replication.", "replication"),
    ("repro.faults.", "faults"),
    ("repro.baselines.", "baselines"),
    ("repro.eval.", "eval"),
    ("repro.storm.", "storm.search"),
    ("repro.workloads.", "workloads.provision"),
)

#: Every part a span can carry, in report order.
PARTS: tuple[str, ...] = tuple(
    dict.fromkeys(
        [part for _, _, part in ENTRY_POINTS]
        + [part for _, part in CALLEE_PARTS]
        + [DRIVER]
    )
)

#: Raw spans kept for the one sampled op (bounds the trace file's size).
SPAN_CAP = 50_000


class Tracer:
    """The span stack and its aggregates."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [part, seconds covered by children]
        #: phase -> (span name, part, parent part) -> [calls, self seconds]
        self.phases: dict[str, dict[tuple[str, str, str], list]] = {}
        self._totals: dict[tuple[str, str, str], list] = {}
        #: raw (name, part, start, end) spans while an op is being sampled
        self.spans: list[tuple[str, str, float, float]] | None = None
        self._described: dict[tuple[Any, str], tuple[str, str]] = {}
        #: counter -> amount noted by weighted entry points (see WEIGHTS)
        self.noted: Counter[str] = Counter()
        self.phase("discard")

    def phase(self, name: str) -> None:
        """Send the totals of the spans that follow to phase ``name``."""
        self._totals = self.phases.setdefault(name, {})

    def call(self, name: str, part: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [part, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[1] += elapsed
            key = (name, part, parent[0] if parent is not None else "")
            record = self._totals.get(key)
            if record is None:
                record = self._totals[key] = [0, 0.0]
            record[0] += 1
            record[1] += elapsed - frame[1]
            spans = self.spans
            if spans is not None and len(spans) < SPAN_CAP:
                spans.append((name, part, start, end))

    def child_cost(self, spans: int = 20_000) -> float:
        """Seconds of wrapper work one child span adds to its parent's self time."""
        noop = _traced(self, lambda: None, "call:noop", DRIVER)

        def parent() -> None:
            for _ in range(spans):
                noop()

        kept, self._totals = self._totals, {}
        self.call("call:parent", DRIVER, parent, (), {})
        cost = self._totals[("call:parent", DRIVER, "")][1] / spans
        self._totals = kept
        return cost

    def describe(self, callback: Callable, kind: str) -> tuple[str, str]:
        """``(span name, part)`` of a handler or callback, by its module."""
        target = getattr(callback, "func", callback)  # functools.partial
        function = getattr(target, "__func__", target)  # bound method
        key = (function, kind)
        known = self._described.get(key)
        if known is None:
            qualname = getattr(function, "__qualname__", type(function).__name__)
            path = f"{getattr(function, '__module__', '')}.{qualname}"
            part = next(
                (part for prefix, part in CALLEE_PARTS if path.startswith(prefix)),
                DRIVER,
            )
            known = self._described[key] = (f"{kind}:{qualname}", part)
        return known


def _traced(tracer: Tracer, fn: Callable, name: str, part: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, part, fn, args, kwargs)

    return wrapper


def _weighed(tracer: Tracer, fn: Callable, counter: str, amount: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.noted[counter] += amount(result)
        return result

    return wrapper


def _fire(tracer: Tracer, name: str, part: str, callback: Callable, *args) -> None:
    tracer.call(name, part, callback, args, {})


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of one entry point."""
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, owner.__dict__[attribute]


def _rebind_everywhere(original: Any, replacement: Any) -> None:
    """Point every loaded module's binding of ``original`` at ``replacement``
    (``from m import f`` copies the binding, so patching ``m`` alone misses
    the importers)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def install(tracer: Tracer) -> None:
    """Install every wrapper.  Call once, before the program builds anything."""
    for module_name, path, part in ENTRY_POINTS:
        owner, attribute, current = _resolve(module_name, path)
        name = f"call:{path}"
        if path in WEIGHTS:
            current = _weighed(tracer, current, *WEIGHTS[path])
        if isinstance(current, property):
            setattr(owner, attribute, property(_traced(tracer, current.fget, name, part)))
        elif isinstance(current, (classmethod, staticmethod)):
            wrapped = _traced(tracer, current.__func__, name, part)
            setattr(owner, attribute, type(current)(wrapped))
        elif isinstance(owner, type):
            setattr(owner, attribute, _traced(tracer, current, name, part))
        else:
            _rebind_everywhere(current, _traced(tracer, current, name, part))

    from repro.net.network import Host
    from repro.sim.kernel import Simulator
    from repro.sim.resources import FifoServer

    bind = Host.bind

    @functools.wraps(bind)
    def traced_bind(self, protocol, handler):
        name, part = tracer.describe(handler, "handler")
        bind(self, protocol, _traced(tracer, handler, name, part))

    Host.bind = traced_bind

    def defer(original: Callable, label: str, kind: str) -> Callable:
        # schedule(delay, callback, *args) / submit(service_time, callback,
        # *args): the call itself is kernel work, and the callback fires
        # later inside a span of the part that owns it.
        @functools.wraps(original)
        def traced_defer(self, when, callback, *args):
            name, part = tracer.describe(callback, kind)
            return tracer.call(
                label,
                "sim",
                original,
                (self, when, _fire, tracer, name, part, callback, *args),
                {},
            )

        return traced_defer

    Simulator.schedule = defer(Simulator.schedule, "call:Simulator.schedule", "event")
    Simulator.schedule_daemon = defer(
        Simulator.schedule_daemon, "call:Simulator.schedule_daemon", "event"
    )
    FifoServer.submit = defer(FifoServer.submit, "call:FifoServer.submit", "job")


class Registry:
    """Program objects created since the last :meth:`forget`, by class.

    The benchmark never sees the deployments ``figure_5a`` builds, so it
    learns of them here: ``__init__`` of each watched class is wrapped
    to note the new instance.  Their public counters are read after the
    op and the references dropped.
    """

    def __init__(self) -> None:
        self.instances: dict[str, list] = {}

    def watch(self, cls: type) -> None:
        bucket = self.instances.setdefault(cls.__name__, [])
        original = cls.__init__

        @functools.wraps(original)
        def noting_init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            bucket.append(instance)

        cls.__init__ = noting_init

    def of(self, class_name: str) -> list:
        return self.instances.get(class_name, [])

    def forget(self) -> None:
        for bucket in self.instances.values():
            bucket.clear()


def read_counters(registry: Registry, tracer: Tracer | None) -> Counter[str]:
    """Sum the counters the program already exposes over watched objects
    (plus what the tracer's weighted entry points noted)."""
    counts: Counter[str] = Counter(tracer.noted if tracer is not None else {})
    for network in registry.of("Network"):
        counts["net.packets_delivered"] += network.packets_delivered
        counts["net.packets_dropped"] += network.packets_dropped
        counts["net.bytes_carried"] += network.bytes_carried
        for reason, dropped in network.drops_by_reason.items():
            counts[f"net.drop.{reason}"] += dropped
        encoder = network.encoder
        counts["codec.encode_hits"] += encoder.hits
        counts["codec.encode_misses"] += encoder.misses
        counts["codec.control_frames"] += encoder.compact_frames
        counts["codec.data_frames"] += encoder.data_frames
        counts["codec.pickle_payloads"] += encoder.pickle_payloads
    for node in registry.of("BestPeerNode"):
        stats = node.statistics()
        counts["agents.executed"] += stats.get("agents_executed", 0)
        counts["agents.deduped"] += stats.get("agents_deduped", 0)
        counts["core.queries"] += stats["queries_issued"]
        counts["core.answers"] += stats["answers_received"]
        counts["core.request_retries"] += stats["request_retries"]
        counts["core.request_timeouts"] += stats["request_timeouts"]
        counts["liglo.retries"] += stats["liglo_retries"]
        counts["replication.replicas_pushed"] += stats["replicas_pushed"]
        counts["replication.cache_hits"] += stats["cache_hits"]
    for store in registry.of("StorM"):
        counts["storm.scan_cache_hits"] += store.scan_cache_hits
        counts["storm.scan_cache_misses"] += store.scan_cache_misses
        counts["storm.buffer_reads"] += store.stats.logical_reads
        counts["storm.buffer_misses"] += store.stats.physical_reads
    return counts


def write_chrome_trace(path: str, spans: list[tuple[str, str, float, float]]) -> None:
    """Write raw spans as Chrome trace-event JSON (opens in Perfetto)."""
    if not spans:
        return
    origin = min(start for _, _, start, _ in spans)
    events = [
        {
            "name": name,
            "cat": part,
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": 1,
        }
        for name, part, start, end in sorted(spans, key=lambda span: span[2])
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
