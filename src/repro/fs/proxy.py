"""Control-plane file-system proxy (§4.3.2).

The proxy pulls extended-9P RPCs from co-processors and executes them
against the host's extent file system.  For data calls it is *not* a
dumb relay — it is where the paper's two headline optimizations live:

* **Data-path decision** per request (P2P vs buffered) via
  :class:`~repro.core.policy.DataPathPolicy`, using the PCIe topology,
  the shared host buffer cache, and per-file flags.
* **Io-vector coalescing** (§5): all NVMe commands of one read/write
  are submitted as a single ioctl — one doorbell ring, one completion
  interrupt — which is why Phi-Solros can beat the host itself in
  Figure 1(a).

For buffered transfers the proxy stages data in host RAM and drives a
*host* DMA engine (host-initiated transfers are 2.3× faster than
Phi-initiated ones, Figure 4).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from ..core.policy import P2P, DataPathPolicy, PathDecision
from ..faults.breaker import CircuitBreaker
from ..faults.plan import InjectedFault
from ..hw.cpu import CPU, Core
from ..hw.topology import Fabric
from ..obs.hub import NULL_HUB
from ..sim.engine import Engine
from ..transport.rpc import RpcChannel
from .buffercache import BufferCache
from .errors import (
    BadFileDescriptor,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
)
from .extfs import FS_PAGE_UNITS, ExtFS
from .ninep import (
    Tclunk,
    Tcreate,
    Tfsync,
    Tmkdir,
    Topen,
    Tread,
    Treaddir,
    Tremove,
    Tstat,
    Twrite,
)
from .vfs import O_BUFFER, O_CREAT, O_TRUNC

__all__ = ["SolrosFsProxy", "ProxyStats"]

PROXY_OP_UNITS = 400  # per-RPC proxy bookkeeping on the host


def _sctx(span, fallback=None):
    """Context of ``span``, or ``fallback`` when no span was opened."""
    return span.ctx() if span is not None else fallback


class ProxyStats:
    def __init__(self) -> None:
        self.requests = 0
        self.p2p_reads = 0
        self.buffered_reads = 0
        self.p2p_writes = 0
        self.buffered_writes = 0
        self.bytes_read = 0
        self.bytes_written = 0


class _Session:
    """Per-co-processor state: fid table and target identity."""

    def __init__(self, phi_cpu: CPU):
        self.phi_cpu = phi_cpu
        self.fids: Dict[int, Tuple[Any, int]] = {}  # fid -> (inode, flags)
        self.next_fid = 1


class SolrosFsProxy:
    """The host-side file-system service."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        host_fs: ExtFS,
        host_cpu: CPU,
        cache: Optional[BufferCache] = None,
        policy: Optional[DataPathPolicy] = None,
        breaker_threshold: int = 3,
        breaker_reset_ns: int = 2_000_000,
        obs=NULL_HUB,
    ):
        self.engine = engine
        self.fabric = fabric
        self.fs = host_fs
        self.host_cpu = host_cpu
        self.cache = cache
        self.policy = policy or DataPathPolicy(
            fabric, disk_node=host_fs.device.nvme.node
        )
        self.stats = ProxyStats()
        self._sessions: Dict[int, _Session] = {}
        # Optional cross-co-processor prefetcher (§4): set by the
        # control plane when enabled.
        self.prefetcher = None
        # Fault injection + recovery (repro.faults).  With a fault
        # plan, P2P submissions are guarded by a per-device circuit
        # breaker and degrade to the buffered path on injected faults;
        # without one, neither gate is ever consulted.
        self.obs = obs
        self.faults = obs.faults
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_ns = breaker_reset_ns
        self._breakers: Dict[str, CircuitBreaker] = {}
        self.tracer = obs.tracer
        stats = self.stats
        obs.metrics.counter(
            "proxy.path.p2p", lambda: stats.p2p_reads + stats.p2p_writes
        )
        obs.metrics.counter(
            "proxy.path.buffered",
            lambda: stats.buffered_reads + stats.buffered_writes,
        )

    # ------------------------------------------------------------------
    # Circuit breaker (repro.faults)
    # ------------------------------------------------------------------
    def breaker(self, device_node: str) -> CircuitBreaker:
        """The breaker guarding P2P submissions to ``device_node``."""
        b = self._breakers.get(device_node)
        if b is None:
            b = CircuitBreaker(
                self.engine,
                device_node,
                self.obs,
                failure_threshold=self.breaker_threshold,
                reset_ns=self.breaker_reset_ns,
            )
            self._breakers[device_node] = b
        return b

    def breaker_snapshots(self) -> list:
        return [
            self._breakers[k].snapshot() for k in sorted(self._breakers)
        ]

    def _p2p_allowed(self, device) -> bool:
        """Consult the device breaker; only active with a fault plan."""
        if self.faults.plan is None:
            return True
        if self.breaker(device.nvme.node).allow():
            return True
        self.faults.fallback_buffered()
        return False

    def _p2p_failed(self, device) -> None:
        self.breaker(device.nvme.node).record_failure()
        self.faults.fallback_buffered()

    def _p2p_succeeded(self, device) -> None:
        if self.faults.plan is not None:
            self.breaker(device.nvme.node).record_success()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def serve(
        self,
        channel: RpcChannel,
        phi_cpu: CPU,
        n_workers: int = 4,
        first_core: int = 0,
        scheduler=None,
        source: Optional[str] = None,
    ) -> None:
        """Attach a co-processor's RPC channel and start proxy workers.

        Without a ``scheduler`` this starts the classic fixed pool: one
        server loop per core draining the ring FIFO.  With one (a
        ``repro.sched.RequestScheduler``), a single puller on
        ``first_core`` feeds the scheduler and execution happens on its
        shared elastic worker pool instead — ``n_workers`` is ignored.
        """
        session = _Session(phi_cpu)
        self._sessions[id(channel)] = session

        def handler(core: Core, method: str, payload: Any, ctx) -> Generator:
            result = yield from self.handle(core, session, payload, ctx)
            return result

        if scheduler is not None:
            channel.start_scheduled_server(
                self.host_cpu.core(first_core),
                scheduler,
                source or phi_cpu.name,
                handler,
            )
            return
        cores = [
            self.host_cpu.core(first_core + i) for i in range(n_workers)
        ]
        channel.start_server(cores, handler)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def handle(
        self, core: Core, session: _Session, msg: Any, ctx=None
    ) -> Generator:
        self.stats.requests += 1
        yield from core.compute(PROXY_OP_UNITS, "branchy")
        if isinstance(msg, Topen):
            result = yield from self._open(core, session, msg)
        elif isinstance(msg, Tclunk):
            session.fids.pop(msg.fid, None)
            yield 0
            result = None
        elif isinstance(msg, Tread):
            result = yield from self._read(core, session, msg, ctx)
        elif isinstance(msg, Twrite):
            result = yield from self._write(core, session, msg, ctx)
        elif isinstance(msg, Tcreate):
            inode = yield from self.fs.create(core, msg.path)
            result = inode.ino
        elif isinstance(msg, Tremove):
            yield from self.fs.unlink(core, msg.path)
            result = None
        elif isinstance(msg, Tstat):
            result = yield from self.fs.stat(core, msg.path)
        elif isinstance(msg, Tmkdir):
            yield from self.fs.mkdir(core, msg.path)
            result = None
        elif isinstance(msg, Treaddir):
            result = yield from self.fs.readdir(core, msg.path)
        elif isinstance(msg, Tfsync):
            yield from self.fs.sync(core)
            result = None
        else:
            raise InvalidArgument(f"unknown 9P message: {msg!r}")
        return result

    # ------------------------------------------------------------------
    # Open / fid management
    # ------------------------------------------------------------------
    def _open(self, core: Core, session: _Session, msg: Topen) -> Generator:
        try:
            inode = yield from self.fs.lookup(core, msg.path)
        except FileNotFound:
            if not msg.flags & O_CREAT:
                raise
            inode = yield from self.fs.create(core, msg.path)
        if msg.flags & O_TRUNC and inode.size:
            yield from self.fs.truncate(core, msg.path)
        fid = session.next_fid
        session.next_fid += 1
        session.fids[fid] = (inode, msg.flags)
        return fid

    def _fid(self, session: _Session, fid: int):
        try:
            return session.fids[fid]
        except KeyError:
            raise BadFileDescriptor(f"fid {fid}") from None

    # ------------------------------------------------------------------
    # Read (the Figure 6 data paths)
    # ------------------------------------------------------------------
    def _read(
        self, core: Core, session: _Session, msg: Tread, ctx=None
    ) -> Generator:
        inode, flags = self._fid(session, msg.fid)
        if inode.is_dir:
            raise IsADirectory(f"fid {msg.fid}")
        count = max(0, min(msg.count, inode.size - msg.offset))
        if count == 0:
            yield 0
            return b""
        if self.prefetcher is not None:
            self.prefetcher.record_access(inode, msg.target_node)
        # The fs and device spans are Figure 13(a)'s split.
        traced = self.tracer.enabled and ctx is not None
        fs_span = (
            self.tracer.begin("fs.fiemap", "fs", parent=ctx, core=core)
            if traced
            else None
        )
        extents = yield from self.fs.fiemap(core, inode, msg.offset, count)
        decision, cached, missing = self._decide(
            msg.target_node, flags, extents
        )
        if fs_span is not None:
            self.tracer.end(fs_span, mode=decision.mode, extents=len(extents))

        device = self.fs.device
        if decision.mode == P2P and self._p2p_allowed(device):
            try:
                yield from self._read_p2p(
                    core, msg, extents, count, ctx, traced, device
                )
            except InjectedFault:
                # Injected device failure on the zero-copy path:
                # degrade this request to the host-staged buffered
                # path (nothing landed in co-processor memory, so all
                # extents are re-read) and let the breaker decide for
                # the requests after it.
                self._p2p_failed(device)
                yield from self._read_buffered(
                    core, msg, extents, list(extents), count, ctx,
                    traced, device,
                )
        else:
            yield from self._read_buffered(
                core, msg, extents, missing, count, ctx, traced, device
            )

        self.stats.bytes_read += count
        data = b"".join(device.read_extent_data(e) for e in extents)
        skip = msg.offset % self.fs.sb.block_size
        return data[skip : skip + count]

    def _read_p2p(
        self, core: Core, msg: Tread, extents, count: int, ctx, traced,
        device,
    ) -> Generator:
        # Zero copy: the NVMe DMA engine lands data directly in
        # co-processor memory; one doorbell, one interrupt.
        self.stats.p2p_reads += 1
        dev_span = (
            self.tracer.begin(
                "nvme.read", "device", parent=ctx, core=core,
                nbytes=count, path="p2p",
            )
            if traced
            else None
        )
        try:
            yield from device.submit_read(
                core, extents, msg.target_node, coalesce=True,
                ctx=_sctx(dev_span, ctx),
            )
        except InjectedFault:
            if dev_span is not None:
                self.tracer.end(dev_span, error=True)
            raise
        if dev_span is not None:
            self.tracer.end(dev_span)
        self._p2p_succeeded(device)

    def _read_buffered(
        self, core: Core, msg: Tread, extents, missing, count: int, ctx,
        traced, device,
    ) -> Generator:
        # Buffered: stage misses in host RAM through the shared
        # cache, then push everything with a host DMA engine.
        self.stats.buffered_reads += 1
        pages = (count + 4095) // 4096
        yield from core.compute(FS_PAGE_UNITS * pages, "branchy")
        if missing:
            dev_span = (
                self.tracer.begin(
                    "nvme.read", "device", parent=ctx, core=core,
                    nbytes=count, path="buffered",
                )
                if traced
                else None
            )
            yield from device.submit_read(
                core, missing, self.host_cpu.node, coalesce=True,
                ctx=_sctx(dev_span, ctx),
            )
            if dev_span is not None:
                self.tracer.end(dev_span)
            if self.cache is not None:
                self.cache.insert(device, missing)
        dma_span = (
            self.tracer.begin(
                "dma.push", "transport", parent=ctx, core=core,
                nbytes=count,
            )
            if traced
            else None
        )
        yield from self.fabric.dma_copy(
            core, self.host_cpu.node, msg.target_node, count
        )
        if dma_span is not None:
            self.tracer.end(dma_span)

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def _write(
        self, core: Core, session: _Session, msg: Twrite, ctx=None
    ) -> Generator:
        inode, flags = self._fid(session, msg.fid)
        if inode.is_dir:
            raise IsADirectory(f"fid {msg.fid}")
        if msg.count == 0:
            yield 0
            return 0
        traced = self.tracer.enabled and ctx is not None
        fs_span = (
            self.tracer.begin("fs.allocate+fiemap", "fs", parent=ctx, core=core)
            if traced
            else None
        )
        yield from self.fs._ensure_allocated(core, inode, msg.offset + msg.count)
        extents = yield from self.fs.fiemap(core, inode, msg.offset, msg.count)
        decision, cached, missing = self._decide(
            msg.source_node, flags, extents
        )
        if fs_span is not None:
            self.tracer.end(fs_span, mode=decision.mode, extents=len(extents))

        device = self.fs.device
        if msg.data is not None:
            # Functional truth: scatter the bytes into device blocks.
            self.fs._store_bytes(inode, msg.offset, msg.data, extents)

        if decision.mode == P2P and self._p2p_allowed(device):
            try:
                yield from self._write_p2p(
                    core, msg, extents, ctx, traced, device
                )
            except InjectedFault:
                # Degrade this write to the buffered path; the bytes
                # were already scattered functionally above, so only
                # the timing/DMA story changes.
                self._p2p_failed(device)
                yield from self._write_buffered(
                    core, msg, extents, ctx, traced, device
                )
        else:
            yield from self._write_buffered(
                core, msg, extents, ctx, traced, device
            )

        if msg.offset + msg.count > inode.size:
            inode.size = msg.offset + msg.count
            self.fs._dirty_inodes.add(inode.ino)
        self.stats.bytes_written += msg.count
        return msg.count

    def _write_p2p(
        self, core: Core, msg: Twrite, extents, ctx, traced, device
    ) -> Generator:
        self.stats.p2p_writes += 1
        dev_span = (
            self.tracer.begin(
                "nvme.write", "device", parent=ctx, core=core,
                nbytes=msg.count, path="p2p",
            )
            if traced
            else None
        )
        try:
            yield from device.submit_write(
                core, extents, msg.source_node, coalesce=True,
                ctx=_sctx(dev_span, ctx),
            )
        except InjectedFault:
            if dev_span is not None:
                self.tracer.end(dev_span, error=True)
            raise
        if dev_span is not None:
            self.tracer.end(dev_span)
        if self.cache is not None:
            # The DMA bypassed host RAM: stale cache copies must go.
            self.cache.invalidate(device, extents)
        self._p2p_succeeded(device)

    def _write_buffered(
        self, core: Core, msg: Twrite, extents, ctx, traced, device
    ) -> Generator:
        self.stats.buffered_writes += 1
        dma_span = (
            self.tracer.begin(
                "dma.pull", "transport", parent=ctx, core=core,
                nbytes=msg.count,
            )
            if traced
            else None
        )
        yield from self.fabric.dma_copy(
            core, msg.source_node, self.host_cpu.node, msg.count
        )
        if dma_span is not None:
            self.tracer.end(dma_span)
        pages = (msg.count + 4095) // 4096
        yield from core.compute(FS_PAGE_UNITS * pages, "branchy")
        dev_span = (
            self.tracer.begin(
                "nvme.write", "device", parent=ctx, core=core,
                nbytes=msg.count, path="buffered",
            )
            if traced
            else None
        )
        yield from device.submit_write(
            core, extents, self.host_cpu.node, coalesce=True,
            ctx=_sctx(dev_span, ctx),
        )
        if dev_span is not None:
            self.tracer.end(dev_span)
        if self.cache is not None:
            self.cache.insert(device, extents)

    # ------------------------------------------------------------------
    # Policy glue
    # ------------------------------------------------------------------
    def _decide(
        self, target_node: str, flags: int, extents
    ) -> Tuple[PathDecision, list, list]:
        cached: list = []
        missing: list = list(extents)
        hit_fraction = 0.0
        if self.cache is not None:
            cached, missing = self.cache.split_extents(self.fs.device, extents)
            total = sum(c for _s, c in extents)
            hits = sum(c for _s, c in cached)
            hit_fraction = hits / total if total else 0.0
        decision = self.policy.choose(
            target_node,
            o_buffer=bool(flags & O_BUFFER),
            cache_hit_fraction=hit_fraction,
        )
        return decision, cached, missing
