"""Extensible buffer-replacement strategies.

StorM's defining feature (per the SIGMOD'99 paper it embodies) is that
the buffer manager's replacement policy is a pluggable component.  A
strategy observes frame lifecycle events (``loaded``, ``accessed``,
``evicted``) and, when the pool is full, picks a victim among the
currently evictable (unpinned) frames.

Frames are identified by integer frame ids assigned by the buffer
manager.  ``choose_victim`` must return a member of ``candidates``;
the buffer manager validates this, so a buggy strategy fails loudly.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence

from repro.errors import BufferError_


class ReplacementStrategy:
    """Interface observed by :class:`~repro.storm.buffer.BufferManager`."""

    name = "abstract"

    def on_page_loaded(self, frame_id: int) -> None:
        """A page was read into ``frame_id``."""

    def on_page_accessed(self, frame_id: int) -> None:
        """The page in ``frame_id`` was pinned (after load)."""

    def on_page_evicted(self, frame_id: int) -> None:
        """The page in ``frame_id`` was evicted."""

    def on_pages_loaded(self, frame_ids: Sequence[int]) -> None:
        """Pages were read into ``frame_ids``, one after the other."""
        for frame_id in frame_ids:
            self.on_page_loaded(frame_id)

    def on_pages_accessed(self, frame_ids: Sequence[int]) -> None:
        """The pages in ``frame_ids`` were pinned, one after the other."""
        for frame_id in frame_ids:
            self.on_page_accessed(frame_id)

    def choose_victim(self, candidates: Collection[int]) -> int:
        """Pick the frame to evict among ``candidates`` (never empty).

        The buffer manager always passes candidates in ascending
        frame-id order, so strategies that break ties positionally
        (min/max over equal stamps, clock sweeps) behave identically
        however the evictable set is tracked internally.
        """
        raise NotImplementedError


class _TimestampStrategy(ReplacementStrategy):
    """Shared machinery: per-frame logical timestamps."""

    def __init__(self):
        self._clock = 0
        self._stamp: dict[int, int] = {}

    def _tick(self, frame_id: int) -> None:
        self._clock += 1
        self._stamp[frame_id] = self._clock

    def _tick_run(self, frame_ids: Sequence[int]) -> None:
        """``_tick`` each frame in turn, as one ``dict.update``."""
        clock = self._clock
        self._clock = clock + len(frame_ids)
        self._stamp.update(zip(frame_ids, range(clock + 1, self._clock + 1)))

    def on_pages_loaded(self, frame_ids: Sequence[int]) -> None:
        # Every timestamp strategy stamps a frame when a page enters it.
        self._tick_run(frame_ids)

    def on_page_evicted(self, frame_id: int) -> None:
        self._stamp.pop(frame_id, None)


class LruStrategy(_TimestampStrategy):
    """Evict the least recently used frame (the classic default)."""

    name = "lru"

    def on_page_loaded(self, frame_id: int) -> None:
        self._tick(frame_id)

    def on_page_accessed(self, frame_id: int) -> None:
        self._tick(frame_id)

    def on_pages_accessed(self, frame_ids: Sequence[int]) -> None:
        self._tick_run(frame_ids)

    def choose_victim(self, candidates: Collection[int]) -> int:
        return min(candidates, key=lambda frame_id: self._stamp.get(frame_id, 0))


class MruStrategy(_TimestampStrategy):
    """Evict the most recently used frame (wins on sequential floods)."""

    name = "mru"

    def on_page_loaded(self, frame_id: int) -> None:
        self._tick(frame_id)

    def on_page_accessed(self, frame_id: int) -> None:
        self._tick(frame_id)

    def on_pages_accessed(self, frame_ids: Sequence[int]) -> None:
        self._tick_run(frame_ids)

    def choose_victim(self, candidates: Collection[int]) -> int:
        return max(candidates, key=lambda frame_id: self._stamp.get(frame_id, 0))


class FifoStrategy(_TimestampStrategy):
    """Evict the longest-resident frame, ignoring accesses."""

    name = "fifo"

    def on_page_loaded(self, frame_id: int) -> None:
        self._tick(frame_id)

    def choose_victim(self, candidates: Collection[int]) -> int:
        return min(candidates, key=lambda frame_id: self._stamp.get(frame_id, 0))


class ClockStrategy(ReplacementStrategy):
    """Second-chance clock: one reference bit per frame, rotating hand."""

    name = "clock"

    def __init__(self):
        self._referenced: dict[int, bool] = {}
        self._ring: list[int] = []
        self._hand = 0

    def on_page_loaded(self, frame_id: int) -> None:
        if frame_id not in self._referenced:
            self._ring.append(frame_id)
        self._referenced[frame_id] = True

    def on_page_accessed(self, frame_id: int) -> None:
        self._referenced[frame_id] = True

    def on_page_evicted(self, frame_id: int) -> None:
        self._referenced.pop(frame_id, None)
        index = self._ring.index(frame_id)
        self._ring.pop(index)
        if index < self._hand:
            self._hand -= 1
        if self._ring:
            self._hand %= len(self._ring)
        else:
            self._hand = 0

    def choose_victim(self, candidates: Collection[int]) -> int:
        candidate_set = set(candidates)
        # Two full sweeps suffice: the first clears reference bits, the
        # second must find a clear candidate.
        for _ in range(2 * len(self._ring)):
            frame_id = self._ring[self._hand]
            if frame_id in candidate_set:
                if self._referenced.get(frame_id, False):
                    self._referenced[frame_id] = False
                else:
                    self._hand = (self._hand + 1) % len(self._ring)
                    return frame_id
            self._hand = (self._hand + 1) % len(self._ring)
        # All candidates kept their reference bit set twice - impossible,
        # but fall back deterministically rather than loop forever.
        return min(candidate_set)


#: The K of LRU-K: StorM's LRU-2 (DESIGN.md, "StorM" row).
K = 2


class LruKStrategy(ReplacementStrategy):
    """LRU-K: evict the frame with the oldest K-th most recent access.

    Frames with fewer than :data:`K` accesses are preferred victims
    (infinite backward K-distance), ordered by their oldest access.
    """

    name = "lru-k"

    def __init__(self):
        self._clock = 0
        self._history: dict[int, list[int]] = {}

    def _touch(self, frame_id: int) -> None:
        self._clock += 1
        history = self._history.setdefault(frame_id, [])
        history.append(self._clock)
        if len(history) > K:
            history.pop(0)

    def on_page_loaded(self, frame_id: int) -> None:
        self._history[frame_id] = []
        self._touch(frame_id)

    def on_page_accessed(self, frame_id: int) -> None:
        self._touch(frame_id)

    def on_page_evicted(self, frame_id: int) -> None:
        self._history.pop(frame_id, None)

    def _backward_k_distance(self, frame_id: int) -> tuple[int, int]:
        history = self._history.get(frame_id, [])
        if len(history) < K:
            # Infinite distance: sort before all finite ones, oldest first.
            oldest = history[0] if history else 0
            return (0, oldest)
        return (1, history[0])

    def choose_victim(self, candidates: Collection[int]) -> int:
        return min(candidates, key=self._backward_k_distance)


_STRATEGIES = {
    "lru": LruStrategy,
    "mru": MruStrategy,
    "fifo": FifoStrategy,
    "clock": ClockStrategy,
    "lru-k": LruKStrategy,
}


def make_strategy(name: str) -> ReplacementStrategy:
    """Construct a replacement strategy by name (see ``_STRATEGIES``)."""
    try:
        factory = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise BufferError_(f"unknown strategy {name!r}; known: {known}") from None
    return factory()
