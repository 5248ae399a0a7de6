"""Control-plane file prefetching (§4, "Efficient global coordination").

The paper motivates the control plane's global view with: "our file
system service ... prefetches frequently accessed files from multiple
co-processors to the host memory".  This module implements that
optional optimization: the proxy records which files each co-processor
reads; once a file is hot across *multiple* co-processors, a
background host worker pulls it into the shared buffer cache, so every
plane's subsequent reads take the cache-hit buffered path instead of
hitting the SSD again.

This is exactly the kind of decision only the control plane can make —
no single co-processor sees cross-plane access patterns.
"""

from __future__ import annotations

from typing import Dict, Generator, Set

from ..fs.buffercache import BufferCache
from ..fs.extfs import ExtFS
from ..hw.cpu import Core
from ..sim.engine import Engine

__all__ = ["Prefetcher", "PrefetchStats"]


class PrefetchStats:
    def __init__(self) -> None:
        self.tracked_files = 0
        self.prefetches = 0
        self.bytes_prefetched = 0
        self.skipped_too_large = 0


class _FileHeat:
    __slots__ = ("accesses", "planes", "prefetched")

    def __init__(self) -> None:
        self.accesses = 0
        self.planes: Set[str] = set()
        self.prefetched = False


class Prefetcher:
    """Cross-co-processor access tracking + background cache warming."""

    def __init__(
        self,
        engine: Engine,
        fs: ExtFS,
        cache: BufferCache,
        host_core: Core,
        min_accesses: int = 4,
        min_planes: int = 2,
        max_file_bytes: int = 64 << 20,
    ):
        if cache is None:
            raise ValueError("prefetching requires the shared buffer cache")
        self.engine = engine
        self.fs = fs
        self.cache = cache
        self.host_core = host_core
        self.min_accesses = min_accesses
        self.min_planes = min_planes
        self.max_file_bytes = max_file_bytes
        self.stats = PrefetchStats()
        self._heat: Dict[int, _FileHeat] = {}
        self._inflight: Set[int] = set()

    # ------------------------------------------------------------------
    # Called by the FS proxy on every read
    # ------------------------------------------------------------------
    def record_access(self, inode, plane_node: str) -> None:
        """Note one read of ``inode`` by the co-processor at
        ``plane_node``; may kick off a background prefetch."""
        heat = self._heat.get(inode.ino)
        if heat is None:
            heat = _FileHeat()
            self._heat[inode.ino] = heat
            self.stats.tracked_files += 1
        heat.accesses += 1
        heat.planes.add(plane_node)
        if self._should_prefetch(inode, heat):
            heat.prefetched = True
            self._inflight.add(inode.ino)
            self.engine.spawn(
                self._prefetch(inode), name=f"prefetch-ino{inode.ino}"
            )

    def _should_prefetch(self, inode, heat: _FileHeat) -> bool:
        if heat.prefetched or inode.ino in self._inflight:
            return False
        if heat.accesses < self.min_accesses:
            return False
        if len(heat.planes) < self.min_planes:
            return False
        if inode.size > self.max_file_bytes:
            self.stats.skipped_too_large += 1
            heat.prefetched = True  # don't re-evaluate every access
            return False
        return inode.size > 0

    # ------------------------------------------------------------------
    # Background worker
    # ------------------------------------------------------------------
    def _prefetch(self, inode) -> Generator:
        try:
            extents = inode.map_range(self.fs.sb.block_size, 0, inode.size)
            cached, missing = self.cache.split_extents(self.fs.device, extents)
            if not missing:
                return
            yield from self.fs.device.submit_read(
                self.host_core, missing, self.fs.node, coalesce=True
            )
            self.cache.insert(self.fs.device, missing)
            self.stats.prefetches += 1
            self.stats.bytes_prefetched += sum(
                c for _s, c in missing
            ) * self.fs.sb.block_size
        finally:
            self._inflight.discard(inode.ino)

    def is_hot(self, ino: int) -> bool:
        heat = self._heat.get(ino)
        return bool(heat and heat.prefetched)
