"""Host-side shared buffer cache (§4.3).

"We use host-side buffer cache to improve the I/O performance of
accessing data shared by multiple co-processors."  The control-plane
proxy consults this cache in buffered mode; a hit skips the NVMe round
trip entirely, and because the cache is *shared*, one co-processor's
read warms the path for all others.

Only presence and recency are tracked here — the actual bytes live in
the :class:`~repro.fs.blockdev.BlockDevice` store (which is the single
source of truth for data integrity), so the cache purely shapes
timing, exactly like a page cache shapes timing over a disk.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Tuple

from ..obs.hub import NULL_HUB
from .blockdev import BlockDevice, Extent

__all__ = ["BufferCache", "BufferCacheStats"]


class BufferCacheStats:
    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """LRU block cache keyed by (device, block number)."""

    def __init__(
        self, capacity_bytes: int, block_size: int = 4096, obs=NULL_HUB
    ):
        if capacity_bytes < block_size:
            raise ValueError("cache smaller than one block")
        self.capacity_blocks = capacity_bytes // block_size
        self.block_size = block_size
        self._lru: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.stats = BufferCacheStats()
        # Metrics only: the cache emits no spans.
        metrics = obs.metrics
        stats = self.stats
        metrics.counter("cache.hits", lambda: stats.hits)
        metrics.counter("cache.misses", lambda: stats.misses)
        self._g_hit_rate = metrics.gauge("cache.hit_rate")
        self._g_resident = metrics.gauge("cache.resident_blocks")

    def __len__(self) -> int:
        return len(self._lru)

    @staticmethod
    def _key(device: BlockDevice, blockno: int) -> Tuple[int, int]:
        return (id(device), blockno)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains(self, device: BlockDevice, blockno: int) -> bool:
        return self._key(device, blockno) in self._lru

    def split_extents(
        self, device: BlockDevice, extents: List[Extent]
    ) -> Tuple[List[Extent], List[Extent]]:
        """Partition ``extents`` into (cached, missing) block runs.

        Touches LRU recency for hits and updates hit/miss statistics.
        """
        cached: List[Extent] = []
        missing: List[Extent] = []
        for first, count in extents:
            run_start, run_hit = first, None
            for blockno in range(first, first + count + 1):
                at_end = blockno == first + count
                hit = (
                    None
                    if at_end
                    else self._probe(device, blockno)
                )
                if hit != run_hit or at_end:
                    if run_hit is not None and blockno > run_start:
                        bucket = cached if run_hit else missing
                        bucket.append((run_start, blockno - run_start))
                    run_start, run_hit = blockno, hit
        self._g_hit_rate.set(self.stats.hit_rate)
        return cached, missing

    def _probe(self, device: BlockDevice, blockno: int) -> bool:
        key = self._key(device, blockno)
        if key in self._lru:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, device: BlockDevice, extents: List[Extent]) -> None:
        """Record that these blocks are now resident, evicting LRU."""
        for first, count in extents:
            for blockno in range(first, first + count):
                key = self._key(device, blockno)
                if key in self._lru:
                    self._lru.move_to_end(key)
                    continue
                self._lru[key] = None
                self.stats.insertions += 1
                if len(self._lru) > self.capacity_blocks:
                    self._lru.popitem(last=False)
                    self.stats.evictions += 1
        self._g_resident.set(len(self._lru))

    def invalidate(self, device: BlockDevice, extents: List[Extent]) -> None:
        """Drop blocks (e.g. after a P2P write bypassed the cache)."""
        for first, count in extents:
            for blockno in range(first, first + count):
                self._lru.pop(self._key(device, blockno), None)

    def clear(self) -> None:
        self._lru.clear()
