"""StorM's decoded-scan cache: faster, never different.

The reference is a twin store holding the same objects whose pages are
walked the way a scan without the cache would walk them: pin, decode
every record, unpin.  The cached store must return the same matches,
examine the same objects and cause the same buffer traffic.
"""

from __future__ import annotations

from repro.storm.objects import normalize_keyword
from repro.storm.store import StorM, decode_page


def _loaded_store() -> StorM:
    storm = StorM(pool_size=16)
    for n in range(30):
        storm.put([f"kw{n % 3}"], bytes([n]) * 50)
    return storm


def _reference_pages(storm: StorM):
    """Each page's records, decoded afresh between a pin and an unpin."""
    buffer = storm.buffer
    for page_id in range(storm.heap.page_count):
        data = buffer.pin(page_id)
        try:
            entries = decode_page(page_id, data)
        finally:
            buffer.unpin(page_id)
        yield entries


def _reference_search(storm: StorM, keyword: str):
    """``search_scan`` without the cache: (matches, examined, io)."""
    before = storm.stats.snapshot()
    needle = normalize_keyword(keyword)
    matches, examined = [], 0
    for entries in _reference_pages(storm):
        examined += len(entries)
        matches.extend((rid, obj) for rid, obj in entries if needle in obj.keywords)
    return matches, examined, storm.stats.since(before)


def test_repeated_scans_hit_the_cache():
    storm = _loaded_store()
    first = list(storm.scan())
    misses_after_first = storm.scan_cache_misses
    second = list(storm.scan())
    assert second == first
    assert storm.scan_cache_misses == misses_after_first
    assert storm.scan_cache_hits > 0


def test_insert_and_delete_invalidate_only_touched_pages():
    storm = _loaded_store()
    list(storm.scan())
    rid = storm.put(["fresh"], b"x" * 50)
    results = dict(storm.scan())
    assert results[rid].keywords == ("fresh",)
    storm.delete(rid)
    assert rid not in dict(storm.scan())


def test_search_results_identical_with_cache_off():
    cached = _loaded_store()
    reference = _loaded_store()
    for _ in range(3):
        result = cached.search_scan("kw1")
        matches, examined, io = _reference_search(reference, "kw1")
        assert result.matches == matches
        assert result.objects_examined == examined
        # The cache skips decode work only — simulated I/O must agree.
        assert result.io == io
    assert reference.scan_cache_hits == reference.scan_cache_misses == 0
    assert cached.scan_cache_hits > 0


def test_buffer_stats_identical_with_cache_off():
    cached = _loaded_store()
    reference = _loaded_store()
    for _ in range(3):
        assert list(cached.scan()) == [
            entry for entries in _reference_pages(reference) for entry in entries
        ]
    assert cached.stats == reference.stats
