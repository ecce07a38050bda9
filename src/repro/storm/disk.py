"""Page-granular storage.

:class:`InMemoryDisk` stores fixed-size pages, addressed by integer page
id, in process memory: the one backend every simulated StorM runs on.
"""

from __future__ import annotations

from repro.errors import PageError

DEFAULT_PAGE_SIZE = 4096


class InMemoryDisk:
    """Pages held in process memory."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size < 64:
            raise ValueError(f"page size must be >= 64 bytes, got {page_size}")
        self.page_size = page_size
        self._pages: list[bytearray] = []

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def allocate_page(self) -> int:
        """Append a zeroed page; returns its page id."""
        self._pages.append(bytearray(self.page_size))
        return len(self._pages) - 1

    def read_page(self, page_id: int) -> bytearray:
        self._check_page_id(page_id)
        return bytearray(self._pages[page_id])

    def read_run(self, count: int) -> list[bytearray]:
        """Pages ``0 … count-1``, as ``read_page`` would return them one by one."""
        if count:
            self._check_page_id(count - 1)
        return list(map(bytearray, self._pages[:count]))

    def write_page(self, page_id: int, data: bytes) -> None:
        self._check_page_id(page_id)
        if len(data) != self.page_size:
            raise PageError(
                f"page write of {len(data)} bytes; page size is {self.page_size}"
            )
        self._pages[page_id] = bytearray(data)

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < len(self._pages):
            raise PageError(
                f"page id {page_id} out of range [0, {len(self._pages)})"
            )
