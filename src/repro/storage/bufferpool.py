"""A budgeted buffer pool for decoded disk segments.

Classic LRU with pin counts: readers ``acquire`` (pinning the entry, or
recording a miss), ``insert`` decoded payloads pinned, and ``release``
when done; eviction only ever removes unpinned entries, least recently
used first, until the pool fits its byte budget. A single entry larger
than the whole budget is admitted while pinned and evicted on release —
arbitrarily small budgets degrade to re-reading every segment, they
never break correctness.

The byte currency is the engine's *serialized* row-size accounting
(``cluster.row_bytes``), the same currency the simulated cost model
charges, so the pool budget and the spill threshold speak the same
units. Hit/miss/eviction counters feed ``QueryMetrics`` and
``QueryService.stats()``.

One pool is shared by every concurrently admitted statement, so every
public method takes the pool's lock; pin counts, LRU order, and the
byte total are only ever mutated under it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Optional


class _Entry:
    __slots__ = ("payload", "nbytes", "pins")

    def __init__(self, payload, nbytes: float, pins: int):
        self.payload = payload
        self.nbytes = nbytes
        self.pins = pins


class BufferPool:
    """LRU-with-pin-counts cache of decoded segments, bounded in bytes."""

    def __init__(self, budget_bytes: float):
        self.budget_bytes = float(budget_bytes)
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: the entries' byte total, kept as they come and go (sums of
        #: integral floats: exact, so eviction decides as a re-sum would)
        self._resident = 0.0
        # assigned last: post-construction writes require the lock
        self._lock = threading.RLock()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> float:
        with self._lock:
            return self._resident

    def pins(self, key: Hashable) -> int:
        with self._lock:
            entry = self._entries.get(key)
            return entry.pins if entry is not None else 0

    def acquire(self, key: Hashable):
        """Look up and pin; returns the payload on a hit, None on a miss
        (the caller should decode and :meth:`insert`)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            entry.pins += 1
            self._entries.move_to_end(key)
            return entry.payload

    def insert(self, key: Hashable, payload, nbytes: float) -> None:
        """Add a decoded payload, pinned once for the inserting reader
        (pair with :meth:`release`)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                # raced with another reader of the same segment; share it
                entry.pins += 1
                self._entries.move_to_end(key)
                return
            self._entries[key] = _Entry(payload, float(nbytes), 1)
            self._resident += float(nbytes)
            self._evict()

    def release(self, key: Hashable) -> None:
        """Drop one pin; over-budget unpinned entries become evictable."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            entry.pins = max(0, entry.pins - 1)
            self._evict()

    def invalidate(self, key: Hashable) -> None:
        """Remove an entry whose backing segment was deleted (table
        rewrite); not counted as an eviction."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._resident -= entry.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._resident = 0.0

    def _evict(self) -> None:
        # callers hold self._lock
        while self._resident > self.budget_bytes:
            victim = None
            for key, entry in self._entries.items():  # LRU order
                if entry.pins == 0:
                    victim = key
                    break
            if victim is None:
                return  # everything pinned; over budget until release
            self._resident -= self._entries.pop(victim).nbytes
            self.evictions += 1

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "resident_bytes": self._resident,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
