"""Collector-tracked objects per built node: at most 25.

Every full pass of the cyclic collector walks every tracked object built
so far, so what a deployment leaves tracked per node decides how much of
set-up goes into collecting.  A node used to leave 76 (a bound method
per bound protocol, two objects per serial counter, a dozen parts per
empty store, and state for features that were off).  Counted with
``gc.get_objects()`` after ``gc.collect()`` on a 1000-node, degree-4
random graph with the static strategy and the default rf=1 policy.

An unwritten store reads through one set of empty parts shared by every
such store; the second test checks that no read ever writes them.

Opening a template clone builds a fixed handful of parts and nothing
per page: its buffer books the open as one deferred run (no frame, no
page copy), its free-space tree is copied ready-built, and its postings
are the template's, read in place.  The last test holds an open plus the
warm-up scan to 64 KiB of traced allocations.

The decode and encode memos outlive every deployment, so a figure run
must leave each within its plane's capacity.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro import BestPeerConfig, build_network, random_graph
from repro.eval.figures import figure_5a
from repro.net import codec as wire
from repro.storm.buffer import AccessStats
from repro.storm.store import StorM
from repro.storm.template import StoreTemplate
from repro.workloads.corpus import KeywordCorpus
from repro.workloads.provision import experiment_items

from tests.support import SMOKE

NODES = 1000
BUDGET = 25


def test_a_built_node_leaves_at_most_25_tracked_objects():
    topology = random_graph(NODES, degree=4, seed=1)
    config = BestPeerConfig(max_direct_peers=16, strategy="static")
    gc.collect()
    before = len(gc.get_objects())
    deployment = build_network(NODES, config=config, topology=topology)
    gc.collect()
    per_node = (len(gc.get_objects()) - before) / NODES
    assert len(deployment.nodes) == NODES
    assert per_node <= BUDGET, f"{per_node:.2f} tracked objects per node"


READS = {
    "scan": lambda store: list(store.scan()),
    "search": lambda store: store.search("k"),
    "search_scan": lambda store: store.search_scan("k"),
    "scored_search": lambda store: store.scored_search("k", k=3),
    "scored_search_scan": lambda store: store.scored_search_scan("k", k=3),
    "grep": lambda store: store.grep(b"k"),
    "count": lambda store: store.count,
    "stats": lambda store: store.stats.snapshot(),
}


def _assert_empty(store: StorM) -> None:
    assert store.stats == AccessStats()
    assert store.disk.num_pages == 0
    assert store.heap.record_count == 0
    assert store.buffer.frames_allocated == 0
    assert store.index.keyword_count == 0


def test_reads_never_write_the_shared_empty_parts():
    for name, read in READS.items():
        store = StorM()
        read(store)
        _assert_empty(store)
        assert store.buffer is StorM().buffer, name  # still borrowing
    written = StorM()
    written.put(["k"], b"payload")
    assert written.search_scan("k").match_count == 1
    assert written.buffer is not StorM().buffer
    _assert_empty(StorM())


CLONE_BUDGET = 16
CLONE_TRACED_BYTES = 64 * 1024


def _paper_scale_template() -> StoreTemplate:
    items = experiment_items(
        0, count=1000, size=1024, corpus=KeywordCorpus(100), seed=0
    )
    prototype = StorM()
    prototype.put_many(items)
    template = StoreTemplate.from_store(prototype)
    prototype.close()
    return template


def test_a_clone_open_builds_at_most_16_tracked_objects():
    template = _paper_scale_template()
    gc.collect()
    before = len(gc.get_objects())
    clone = template.instantiate()
    gc.collect()
    built = len(gc.get_objects()) - before
    assert clone.count == 1000
    assert clone.buffer.frames_allocated == 0
    assert built <= CLONE_BUDGET, f"{built} tracked objects for {len(template.pages)} pages"


def test_a_clone_open_and_scan_allocate_under_64_kib():
    template = _paper_scale_template()
    keyword = next(iter(template.keyword_entries))
    tracemalloc.start()
    try:
        clone = template.instantiate()
        result = clone.search_scan(keyword)
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.objects_examined == 1000 and result.match_count > 0
    assert traced < CLONE_TRACED_BYTES, f"{traced} bytes traced"


def test_a_figure_leaves_every_decode_memo_within_its_plane_capacity():
    figure_5a(SMOKE)
    specs = wire.registered_specs()
    assert any(spec.memo for spec in specs if spec.plane is wire.DATA)  # answers
    for spec in specs:
        assert len(spec.memo) <= spec.plane.memo_capacity, spec.name
    assert len(wire._CompressedSource._inflated) <= wire._CompressedSource._CACHE_CAPACITY


def test_a_figure_leaves_every_encode_memo_within_its_plane_capacity():
    figure_5a(SMOKE)
    specs = [spec for spec in wire.registered_specs() if spec.frames is not None]
    assert any(spec.frames for spec in specs if spec.plane is wire.DATA)  # answers
    for spec in specs:
        assert len(spec.frames) <= spec.plane.memo_capacity, spec.name
    assert len(wire._CompressedSource._cache) <= wire._CompressedSource._CACHE_CAPACITY
