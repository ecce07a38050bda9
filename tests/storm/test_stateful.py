"""Stateful (model-based) property tests for the storage substrate.

Hypothesis drives random operation sequences against the real structures
while simple Python models predict what every read must return.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.storm.buffer import BufferManager
from repro.storm.disk import InMemoryDisk


class BufferMachine(RuleBasedStateMachine):
    """The buffer manager is a transparent write-back cache."""

    def __init__(self):
        super().__init__()
        self.disk = InMemoryDisk()
        self.buffer = BufferManager(self.disk, pool_size=3)
        self.model: dict[int, int] = {}  # page_id -> first byte
        self.pinned: dict[int, int] = {}  # page_id -> pin count

    pages = Bundle("pages")

    @rule(target=pages, value=st.integers(min_value=0, max_value=255))
    def new_page(self, value):
        page_id, data = self.buffer.new_page()
        data[0] = value
        self.buffer.mark_dirty(page_id)
        self.buffer.unpin(page_id)
        self.model[page_id] = value
        return page_id

    @rule(page_id=pages)
    def read_page(self, page_id):
        with self.buffer.pinned(page_id) as data:
            assert data[0] == self.model[page_id]

    @rule(page_id=pages, value=st.integers(min_value=0, max_value=255))
    def write_page(self, page_id, value):
        with self.buffer.pinned(page_id) as data:
            data[0] = value
            self.buffer.mark_dirty(page_id)
        self.model[page_id] = value

    @rule(page_id=pages)
    def pin_for_a_while(self, page_id):
        # Keep at most two long-term pins so a frame always stays free.
        if sum(self.pinned.values()) >= 2:
            return
        self.buffer.pin(page_id)
        self.pinned[page_id] = self.pinned.get(page_id, 0) + 1

    @rule(page_id=pages)
    def release_pin(self, page_id):
        if self.pinned.get(page_id, 0) > 0:
            self.buffer.unpin(page_id)
            self.pinned[page_id] -= 1

    @rule(count=st.integers(min_value=0, max_value=6))
    def touch_a_run(self, count):
        count = min(count, self.disk.num_pages)
        logical = self.buffer.stats.logical_reads
        self.buffer.touch(count)
        assert self.buffer.stats.logical_reads == logical + count
        for page_id in self.model:
            assert self.buffer.pin_count(page_id) == self.pinned.get(page_id, 0)

    @rule()
    def flush_everything(self):
        self.buffer.flush_all()

    @rule()
    def reopen_as_a_run(self):
        # Write everything back, drop the pins, and open the disk again
        # the way a clone does: one run over every page, deferred when
        # the pages fit the pool.
        self.buffer.flush_all()
        self.buffer = BufferManager(self.disk, pool_size=3)
        self.pinned.clear()
        self.buffer.touch(self.disk.num_pages)
        if self.disk.num_pages <= self.buffer.pool_size:
            assert self.buffer.frames_allocated == 0

    @invariant()
    def pinned_pages_stay_resident(self):
        for page_id, count in self.pinned.items():
            if count > 0:
                assert page_id in self.buffer.resident_pages

    @invariant()
    def pool_never_over_capacity(self):
        assert len(self.buffer.resident_pages) <= self.buffer.pool_size

    @invariant()
    def flushed_disk_matches_model_for_clean_pages(self):
        # Any page *not* resident must already be correct on disk.
        for page_id, value in self.model.items():
            if page_id not in self.buffer.resident_pages:
                assert self.disk.read_page(page_id)[0] == value


TestBufferMachine = BufferMachine.TestCase
TestBufferMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
