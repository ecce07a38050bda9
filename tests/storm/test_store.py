"""Tests for the StorM facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageClosedError
from repro.storm import InMemoryDisk, StorM
from repro.storm.replacement import make_strategy


class TestStorM:
    def test_put_get(self):
        store = StorM()
        rid = store.put(["jazz"], b"payload")
        obj = store.get(rid)
        assert obj.keywords == ("jazz",)
        assert obj.payload == b"payload"
        assert store.count == 1

    def test_search_via_index(self):
        store = StorM()
        store.put(["jazz"], b"one")
        store.put(["rock"], b"two")
        store.put(["jazz", "fusion"], b"three")
        result = store.search("jazz")
        assert result.match_count == 2
        assert {obj.payload for _, obj in result.matches} == {b"one", b"three"}
        assert result.objects_examined == 2

    def test_search_scan_examines_everything(self):
        store = StorM()
        for i in range(10):
            store.put(["jazz" if i % 2 else "rock"], bytes([i]))
        result = store.search_scan("jazz")
        assert result.objects_examined == 10
        assert result.match_count == 5

    def test_search_and_scan_agree(self):
        store = StorM()
        for i in range(20):
            store.put([f"kw{i % 4}"], bytes([i]))
        via_index = store.search("kw1")
        via_scan = store.search_scan("kw1")
        assert sorted(rid for rid, _ in via_index.matches) == sorted(
            rid for rid, _ in via_scan.matches
        )

    def test_answer_bytes(self):
        store = StorM()
        store.put(["k"], b"x" * 100)
        store.put(["k"], b"y" * 50)
        assert store.search("k").answer_bytes == 150

    def test_delete_removes_from_index(self):
        store = StorM()
        rid = store.put(["jazz"], b"x")
        store.delete(rid)
        assert store.search("jazz").match_count == 0
        assert store.count == 0

    def test_search_io_counted(self):
        store = StorM(pool_size=2)
        for i in range(50):
            store.put(["k"], bytes([i]) * 200)
        result = store.search_scan("k")
        assert result.io.logical_reads > 0
        # Pool of 2 frames over many pages must miss.
        assert result.io.physical_reads > 0

    def test_scan_order_is_page_order(self):
        store = StorM()
        rids = [store.put(["k"], bytes([i])) for i in range(5)]
        scanned = [rid for rid, _ in store.scan()]
        assert scanned == sorted(rids, key=lambda r: (r.page_id, r.slot))

    def test_closed_store_raises(self):
        store = StorM()
        store.close()
        with pytest.raises(StorageClosedError):
            store.put(["k"], b"")
        store.close()  # idempotent

    def test_context_manager(self):
        with StorM() as store:
            store.put(["k"], b"")
        with pytest.raises(StorageClosedError):
            store.count_check = store.get  # store is closed
            store.scan().__next__()

    def test_reopen_over_the_same_disk(self):
        disk = InMemoryDisk(page_size=512)
        with StorM(disk=disk) as store:
            store.put(["blues"], b"muddy waters")
            store.put(["blues", "chicago"], b"howlin wolf")

        with StorM(disk=disk) as reopened:
            assert reopened.count == 2
            # Index was rebuilt from the heap scan.
            result = reopened.search("blues")
            assert result.match_count == 2

    def test_custom_strategy(self):
        store = StorM(pool_size=4, strategy=make_strategy("mru"))
        for i in range(20):
            store.put(["k"], bytes([i]) * 100)
        assert store.search_scan("k").match_count == 20

    def test_grep_searches_payload_content(self):
        store = StorM()
        store.put(["doc"], b"the deadline is friday")
        store.put(["doc"], b"lunch at noon")
        store.put(["doc"], b"deadline moved to monday")
        result = store.grep(b"deadline")
        assert result.match_count == 2
        assert result.objects_examined == 3

    def test_grep_no_match(self):
        store = StorM()
        store.put(["doc"], b"nothing to see")
        assert store.grep(b"absent").match_count == 0

    def test_grep_counts_io(self):
        store = StorM(pool_size=2, disk=InMemoryDisk(page_size=256))
        for i in range(30):
            store.put(["doc"], bytes([i]) * 150)
        result = store.grep(bytes([5]))
        assert result.io.logical_reads > 0
        assert result.match_count == 1

    def test_thousand_objects_of_1kb(self):
        """The paper's per-node workload: 1000 x 1KB objects."""
        store = StorM(pool_size=64)
        for i in range(1000):
            store.put([f"kw{i % 100}"], bytes([i % 256]) * 1024)
        assert store.count == 1000
        result = store.search_scan("kw42")
        assert result.match_count == 10
        assert result.objects_examined == 1000


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.binary(min_size=1, max_size=100),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_store_search_matches_model(entries, pool_size):
    """Both search paths agree with a plain-Python model."""
    store = StorM(pool_size=pool_size, disk=InMemoryDisk(page_size=256))
    for keyword, payload in entries:
        store.put([keyword], payload)
    for keyword in ["a", "b", "c"]:
        expected = sorted(p for k, p in entries if k == keyword)
        via_index = sorted(obj.payload for _, obj in store.search(keyword).matches)
        via_scan = sorted(
            obj.payload for _, obj in store.search_scan(keyword).matches
        )
        assert via_index == expected
        assert via_scan == expected
