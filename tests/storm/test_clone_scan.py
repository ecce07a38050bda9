"""Keyword scans of an unwritten template clone, and its shared postings.

Until its first write a clone answers ``search_scan`` and
``scored_search_scan`` from the template's per-keyword records and books
the buffer in one run.  The battery requires those answers to equal a
freshly populated store's — matches, order, ``truncated``,
``objects_examined``, ``io`` and scan-cache hits — and the clone's
buffer and scan-cache state to equal a twin clone's that walked every
page, and a clone written after k such scans — its buffer one deferred
run until then — to equal, field for field, a twin that built its frames
at open.  The rest pins copy-on-write of the postings a clone reads
through.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storm.disk import InMemoryDisk
from repro.storm.store import StorM
from repro.storm.template import StoreTemplate

PAGE_SIZE = 512
VOCABULARY = ["alpha", "beta", "gamma", "delta"]
QUERIES = VOCABULARY + ["", "absent", " GaMmA "]

keyword_lists = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4)
payloads = st.binary(min_size=0, max_size=150)
item_lists = st.lists(st.tuples(keyword_lists, payloads), min_size=1, max_size=40)


def _populated(items, holes) -> StorM:
    """A store holding ``items`` minus the ``holes``-th ones, flushed."""
    store = StorM(disk=InMemoryDisk(PAGE_SIZE))
    rids = store.put_many(items)
    for position in sorted({hole % len(rids) for hole in holes}):
        store.delete(rids[position])
    store.flush()
    return store


def _searches():
    for keyword in QUERIES:
        yield lambda store, kw=keyword: store.search_scan(kw)
        for k in (None, 1, 3):
            yield lambda store, kw=keyword, k=k: store.scored_search_scan(kw, k)


def _observed(store: StorM, search) -> tuple:
    hits, misses = store.scan_cache_hits, store.scan_cache_misses
    result = search(store)
    return (
        result.matches,
        getattr(result, "truncated", None),
        result.objects_examined,
        result.io,
        store.scan_cache_hits - hits,
        store.scan_cache_misses - misses,
    )


def _buffer_state(store: StorM) -> tuple:
    buffer = store.buffer
    return (
        buffer.stats.snapshot(),
        buffer.resident_pages,  # materialises a deferred run
        dict(buffer._page_table),
        set(buffer._unpinned),
        dict(buffer.strategy._stamp),
        store.scan_cache_hits,
        store.scan_cache_misses,
    )


@settings(max_examples=60, deadline=None)
@given(items=item_lists, holes=st.lists(st.integers(min_value=0), max_size=12))
def test_unwritten_clone_scans_match_a_fresh_store(items, holes):
    template = StoreTemplate.from_store(_populated(items, holes))
    clone = template.instantiate()
    twin = template.instantiate()
    fresh = _populated(items, holes)
    list(fresh.scan())  # decode once, as the template did
    for search in _searches():
        assert _observed(clone, search) == _observed(fresh, search)
        list(twin.scan())  # the per-page walk the clone's scan books
        assert _buffer_state(clone) == _buffer_state(twin)
    assert clone.heap.unwritten


def _fields(store: StorM) -> dict:
    """Everything a store holds that a later operation could observe."""
    buffer, heap = store.buffer, store.heap
    return {
        "buffer": _buffer_state(store),
        "frames": {
            frame_id: (frame.page_id, frame.data, frame.pin_count, frame.dirty)
            for frame_id, frame in buffer._frames.items()
        },
        "pages": [bytes(store.disk.read_page(p)) for p in range(heap.page_count)],
        "free_space": (heap._free_space._free, heap._free_space._tree),
        "records": heap.record_count,
        "versions": dict(heap._versions),
        "postings": _postings(store.index),
        "scan_cache": dict(store._scan_cache),
    }


@settings(max_examples=40, deadline=None)
@given(
    items=item_lists,
    scans=st.integers(min_value=0, max_value=4),
    keyword=st.sampled_from(VOCABULARY),
    pool_size=st.sampled_from([512, 3]),
)
def test_a_clone_written_after_k_scans_is_a_twin_that_booked_eagerly(
    items, scans, keyword, pool_size
):
    template = StoreTemplate.from_store(_populated(items, []))
    clone = template.instantiate(pool_size)
    twin = template.instantiate(pool_size)
    twin.buffer.resident_pages  # builds the open's frames at once
    for _ in range(scans):
        assert clone.search_scan(keyword) == twin.search_scan(keyword)
    if len(template.pages) <= pool_size:
        assert clone.buffer.frames_allocated == 0
    for store in (clone, twin):
        store.put(["beta", keyword], b"late")
    assert _fields(clone) == _fields(twin)
    for search in _searches():
        assert _observed(clone, search) == _observed(twin, search)
    assert _fields(clone) == _fields(twin)


def _store() -> StorM:
    items = [([VOCABULARY[i % 4], VOCABULARY[i % 3]], bytes([i]) * 90) for i in range(30)]
    return _populated(items, holes=[4])


def _template() -> StoreTemplate:
    return StoreTemplate.from_store(_store())


def _postings(index) -> dict:
    return {keyword: set(index.lookup(keyword)) for keyword in index.keywords()}


def test_clone_writes_reach_neither_the_template_nor_a_sibling():
    template = _template()
    original = {keyword: set(rids) for keyword, rids in template.index_snapshot.items()}
    writer, sibling = template.instantiate(), template.instantiate()
    answers = [sibling.search_scan(keyword).matches for keyword in VOCABULARY]
    new_rid = writer.put(["alpha", "epsilon"], b"new")
    victim = writer.index.lookup_ordered("beta")[0]
    writer.delete(victim)
    assert writer.index.lookup("epsilon") == {new_rid}
    assert victim not in writer.index.lookup("beta")
    assert {keyword: set(rids) for keyword, rids in template.index_snapshot.items()} == original
    assert _postings(sibling.index) == original
    assert _postings(template.instantiate().index) == original
    assert [sibling.search_scan(keyword).matches for keyword in VOCABULARY] == answers


def test_the_first_write_copies_the_postings_exactly_once():
    template = _template()
    clone = template.instantiate()
    assert clone.index._postings is template.index_snapshot  # read in place
    clone.put(["gamma"], b"one")
    own = clone.index._postings
    assert own is not template.index_snapshot
    clone.put(["delta"], b"two")
    clone.delete(clone.index.lookup_ordered("alpha")[0])
    assert clone.index._postings is own


def test_a_written_clone_scans_like_a_fresh_store_with_the_same_write():
    template = _template()
    clone = template.instantiate()
    fresh = _store()
    for store in (clone, fresh):
        store.put(["beta", "beta", "alpha"], b"late")
    assert not clone.heap.unwritten
    list(fresh.scan())
    list(clone.scan())
    for search in _searches():
        assert _observed(clone, search) == _observed(fresh, search)
