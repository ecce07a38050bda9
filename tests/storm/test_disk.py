"""Tests for the in-memory disk."""

import pytest

from repro.errors import PageError
from repro.storm.disk import InMemoryDisk


class TestInMemoryDisk:
    def test_allocate_and_round_trip(self):
        disk = InMemoryDisk(page_size=128)
        page_id = disk.allocate_page()
        assert page_id == 0
        assert disk.num_pages == 1
        data = bytearray(b"\x07" * 128)
        disk.write_page(page_id, data)
        assert disk.read_page(page_id) == data

    def test_new_pages_are_zeroed(self):
        disk = InMemoryDisk(page_size=64)
        page_id = disk.allocate_page()
        assert disk.read_page(page_id) == bytearray(64)

    def test_read_returns_copy(self):
        disk = InMemoryDisk(page_size=64)
        page_id = disk.allocate_page()
        copy = disk.read_page(page_id)
        copy[0] = 0xFF
        assert disk.read_page(page_id)[0] == 0

    def test_out_of_range_page(self):
        disk = InMemoryDisk()
        with pytest.raises(PageError):
            disk.read_page(0)
        with pytest.raises(PageError):
            disk.write_page(5, b"\x00" * disk.page_size)

    def test_wrong_size_write(self):
        disk = InMemoryDisk(page_size=64)
        disk.allocate_page()
        with pytest.raises(PageError):
            disk.write_page(0, b"short")

    def test_tiny_page_size_rejected(self):
        with pytest.raises(ValueError):
            InMemoryDisk(page_size=32)

