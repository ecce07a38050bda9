"""Store templates: a clone computes nothing twice and observes no sharing.

A clone takes its free-space map, record count, postings and decoded
records from the template.  The property test drives a clone and a store
populated from scratch through one random trace and requires the same
answers, the same buffer traffic and the same placement of later puts;
the rest pins copy-on-write of the shared decoded pages, that everything
a template shares is read-only, and that a template keeps no page image
it can rebuild from its decoded records.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StormError
from repro.storm.disk import InMemoryDisk
from repro.storm.objects import StoredObject, normalize_keyword
from repro.storm.page import SlottedPage
from repro.storm.store import StorM
from repro.storm.template import SnapshotDisk, StoreTemplate
from repro.workloads.corpus import KeywordCorpus
from repro.workloads.provision import provision_store

VOCABULARY = ["alpha", "beta", "gamma", "delta"]

keyword_lists = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=3)
#: up to ~30 % of a 4 KiB page, so a list of items spans several pages
payloads = st.binary(min_size=0, max_size=1200)
item_lists = st.lists(st.tuples(keyword_lists, payloads), min_size=1, max_size=40)
operations = st.one_of(
    st.tuples(st.just("search_scan"), st.sampled_from(VOCABULARY + [" Alpha "])),
    st.tuples(st.just("scored_search_scan"), st.sampled_from(VOCABULARY)),
    st.tuples(st.just("search"), st.sampled_from(VOCABULARY)),
    st.tuples(st.just("grep"), st.binary(min_size=1, max_size=2)),
    st.tuples(st.just("put"), st.tuples(keyword_lists, payloads)),
    st.tuples(st.just("delete"), st.integers(min_value=0)),
    st.tuples(st.just("vacuum"), st.none()),
)


def _clone(template: StoreTemplate, pool_size: int) -> StorM:
    """``template.instantiate()`` with a pool of ``pool_size`` frames."""
    return StorM(disk=SnapshotDisk(template), pool_size=pool_size, template=template)


def _populated(items, holes, **kwargs) -> tuple[StorM, list]:
    """A store holding ``items`` minus the ``holes``-th ones, flushed."""
    store = StorM(disk=InMemoryDisk(), **kwargs)
    rids = store.put_many(items)
    doomed = sorted({hole % len(rids) for hole in holes})
    for position in doomed:
        store.delete(rids[position])
    store.flush()
    return store, [rid for i, rid in enumerate(rids) if i not in doomed]


def _apply(store: StorM, live: list, operation: str, argument):
    """Run one trace step; returns everything the step lets a caller see."""
    if operation == "put":
        rid = store.put(*argument)
        live.append(rid)
        return rid
    if operation == "delete":
        if not live:
            return None
        return store.delete(live.pop(argument % len(live)))
    if operation == "vacuum":
        return store.vacuum()
    if operation == "scored_search_scan":
        result = store.scored_search_scan(argument, k=3)
        return result.matches, result.objects_examined, result.truncated, result.io
    result = getattr(store, operation)(argument)
    return result.matches, result.objects_examined, result.io


@settings(max_examples=60, deadline=None)
@given(
    items=item_lists,
    holes=st.lists(st.integers(min_value=0), max_size=6),
    trace=st.lists(operations, max_size=25),
    pool_size=st.sampled_from([2, 5, 512]),
)
def test_clone_is_indistinguishable_from_a_populated_store(
    items, holes, trace, pool_size
):
    prototype, _ = _populated(items, holes)
    template = StoreTemplate.from_store(prototype)
    clone = _clone(template, pool_size)
    fresh, live = _populated(items, holes, pool_size=pool_size)
    clone_live = list(live)
    assert clone.count == fresh.count
    assert clone.index.snapshot() == fresh.index.snapshot()
    # One ascending pass (the figures' warm-up scan) leaves both pools
    # with the same residency and recency whatever came before.
    assert clone.search_scan("alpha").matches == fresh.search_scan("alpha").matches
    clone_start, fresh_start = clone.stats.snapshot(), fresh.stats.snapshot()
    for operation, argument in trace:
        assert _apply(clone, clone_live, operation, argument) == _apply(
            fresh, live, operation, argument
        )
        assert clone.stats.since(clone_start) == fresh.stats.since(fresh_start)
    assert list(clone.heap._free_space.items()) == list(fresh.heap._free_space.items())
    assert list(clone.scan()) == list(fresh.scan())
    assert clone.count == fresh.count
    assert clone.put(["late"], b"x" * 40) == fresh.put(["late"], b"x" * 40)


def _template(count: int = 12) -> StoreTemplate:
    store = StorM(disk=InMemoryDisk())
    store.put_many(([f"kw{i % 3}"], bytes([i]) * 800) for i in range(count))
    return StoreTemplate.from_store(store)


def test_open_matches_a_reopen_that_reads_every_slot_directory():
    template = _template()
    clone = _clone(template, 3)
    reopened = StorM(disk=SnapshotDisk(template), pool_size=3)
    assert list(clone.heap._free_space.items()) == list(
        reopened.heap._free_space.items()
    )
    assert clone.count == reopened.count == template.record_count
    assert clone.buffer.resident_pages == reopened.buffer.resident_pages
    # The clone pinned each page once; the reopen also rescanned for its index.
    assert clone.stats.logical_reads == len(template.decoded_pages)
    assert reopened.stats.logical_reads == 2 * len(template.decoded_pages)


def test_clone_scans_decode_nothing_until_a_page_is_written():
    template = _template()
    clone = template.instantiate()
    entries = list(clone.scan())
    assert clone.scan_cache_misses == 0
    assert clone.scan_cache_hits == len(template.decoded_pages)
    assert not clone._scan_cache
    # The very objects the template decoded, not per-clone copies.
    shared = [entry for page in template.decoded_pages for entry in page]
    assert all(mine is theirs for mine, theirs in zip(entries, shared, strict=True))
    rid = clone.put(["fresh"], b"y" * 20)
    assert dict(clone.scan())[rid].payload == b"y" * 20
    assert clone.scan_cache_misses == 1
    assert set(clone._scan_cache) == {rid.page_id}


def test_writes_in_one_clone_reach_no_other():
    template = _template()
    original = [entry for page in template.decoded_pages for entry in page]
    writer, sibling = template.instantiate(), template.instantiate()
    assert list(writer.scan()) == original
    # A put into a shared page that still has room ...
    rid = writer.put(["fresh"], b"z" * 10)
    assert rid.page_id < len(template.decoded_pages)
    assert (rid, writer.get(rid)) in list(writer.scan())
    # ... a delete ...
    victim = original[0][0]
    writer.delete(victim)
    assert victim not in dict(writer.scan())
    # ... and a vacuum, which moves bytes but no record.
    assert writer.vacuum() > 0
    expected = [entry for entry in original if entry[0] != victim]
    expected.append((rid, writer.get(rid)))
    assert sorted(writer.scan()) == sorted(expected)
    assert writer.search("fresh").matches == [(rid, writer.get(rid))]
    # Neither the sibling nor a clone made afterwards saw any of it.
    for other in (sibling, template.instantiate()):
        assert list(other.scan()) == original
        assert other.count == template.record_count
        assert other.search("fresh").matches == []
        assert other.get(victim) == original[0][1]
    assert [entry for page in template.decoded_pages for entry in page] == original


def test_everything_a_template_shares_is_read_only():
    template = _template()
    with pytest.raises(dataclasses.FrozenInstanceError):
        template.record_count = 0
    with pytest.raises(TypeError):
        template.index_snapshot["kw0"] = frozenset()
    with pytest.raises(TypeError):
        del template.index_snapshot["kw0"]
    assert all(type(rids) is frozenset for rids in template.index_snapshot.values())
    with pytest.raises(TypeError):
        template.keyword_entries["kw0"] = ()
    with pytest.raises(TypeError):
        template.images[0] = b""
    for shared in (
        template.free_bytes,
        template.decoded_pages,
        *template.keyword_entries.values(),
    ):
        assert type(shared) is tuple
    holed = StorM(disk=InMemoryDisk())
    holed.delete(holed.put_many(([f"kw{i}"], bytes(800)) for i in range(12))[0])
    images = StoreTemplate.from_store(holed).images
    assert images and all(type(image) is bytes for image in images.values())
    for page in template.decoded_pages:
        assert type(page) is tuple
        for rid, obj in page:
            with pytest.raises(dataclasses.FrozenInstanceError):
                rid.slot = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.payload = b""
            assert type(obj.keywords) is tuple and type(obj.payload) is bytes
    # A clone's index copies the postings on its first write.
    clone = template.instantiate()
    clone.put(["kw0"], b"more")
    assert len(clone.index.lookup("kw0")) == len(template.index_snapshot["kw0"]) + 1


def test_template_must_describe_the_disk_it_opens():
    template = _template()
    with pytest.raises(StormError):
        StorM(disk=SnapshotDisk(_template(24)), template=template)


#: any text a caller may tag with, non-ASCII included
text_keywords = st.text(min_size=1, max_size=6).filter(normalize_keyword)
loads = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.tuples(st.lists(text_keywords, min_size=1, max_size=3), payloads),
        ),
        st.tuples(st.just("put_many"), item_lists),
        st.tuples(st.just("delete"), st.integers(min_value=0)),
        st.tuples(st.just("vacuum"), st.none()),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(load=loads)
def test_a_clone_reads_every_page_as_the_prototype_wrote_it(load):
    prototype, live = StorM(), []
    for operation, argument in load:
        if operation == "put":
            live.append(prototype.put(*argument))
        elif operation == "put_many":
            live.extend(prototype.put_many(argument))
        elif operation == "delete" and live:
            prototype.delete(live.pop(argument % len(live)))
        elif operation == "vacuum":
            prototype.vacuum()
    template = StoreTemplate.from_store(prototype)
    disk = prototype.disk
    originals = [disk.read_page(page_id) for page_id in range(disk.num_pages)]
    clone_disk = template.instantiate().disk
    assert clone_disk.read_run(len(originals)) == originals
    for page_id, original in enumerate(originals):
        assert clone_disk.read_page(page_id) == original
        page = SlottedPage(original)
        records = [record for _slot, record in page.records()]
        rebuilt = SlottedPage.packed(disk.page_size, records).data
        assert page.is_packed() == (rebuilt == original)
        assert (page_id in template.images) == (not page.is_packed())


@settings(max_examples=200, deadline=None)
@given(
    keywords=st.lists(text_keywords, min_size=1, max_size=4),
    payload=st.binary(max_size=64),
)
def test_a_decoded_record_encodes_to_its_own_bytes(keywords, payload):
    record = StoredObject(tuple(keywords), payload).encode()
    assert StoredObject.decode(record).encode() == record


def test_a_provisioned_store_keeps_no_page_image():
    store = provision_store(0, count=1000, size=1024, corpus=KeywordCorpus(100), seed=0)
    template = store._template
    assert template.record_count == 1000 and len(template.decoded_pages) > 300
    assert len(template.images) == 0
