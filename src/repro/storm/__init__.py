"""StorM: a pure-Python reimplementation of the paper's storage manager.

The BestPeer prototype stored each node's sharable data in StorM, a "100%
Java persistent storage manager" built around *extensible buffer
replacement strategies* (Bressan, Goh, Ooi, Tan — SIGMOD 1999).  The
paper measures keyword search and buffer behaviour, never durability,
so this package mirrors the in-memory half of that design, one layer
at a time:

``disk``          page-granular in-memory storage
``page``          slotted-page record layout with compaction
``buffer``        buffer pool with pluggable replacement strategies
``replacement``   LRU, MRU, FIFO, Clock, Random, LRU-K strategies
``heapfile``      heap file of records addressed by (page, slot)
``objects``       the stored-object model: keywords + payload
``index``         keyword inverted index
``store``         the ``StorM`` facade BestPeer nodes program against
"""

from repro.storm.buffer import AccessStats, BufferManager
from repro.storm.disk import InMemoryDisk
from repro.storm.heapfile import HeapFile, RecordId
from repro.storm.index import KeywordIndex
from repro.storm.objects import StoredObject
from repro.storm.page import SlottedPage
from repro.storm.replacement import (
    ClockStrategy,
    FifoStrategy,
    LruKStrategy,
    LruStrategy,
    MruStrategy,
    RandomStrategy,
    ReplacementStrategy,
    make_strategy,
)
from repro.storm.store import StorM

__all__ = [
    "InMemoryDisk",
    "SlottedPage",
    "BufferManager",
    "AccessStats",
    "ReplacementStrategy",
    "LruStrategy",
    "MruStrategy",
    "FifoStrategy",
    "ClockStrategy",
    "RandomStrategy",
    "LruKStrategy",
    "make_strategy",
    "HeapFile",
    "RecordId",
    "StoredObject",
    "KeywordIndex",
    "StorM",
]
