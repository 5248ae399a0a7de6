"""Data-plane file-system stub (§4.3.1).

Runs under the co-processor VFS; transforms each file-system call 1:1
into an extended-9P RPC to the control-plane proxy.  It never touches
directories, disk blocks, or inodes — and for read/write it ships the
*address* of co-processor memory (our topology node name), so the data
itself moves by device DMA, never through the stub.

Being thin is the point: per Figure 13 the stub spends ~5× less
co-processor time than a full file system, because it only builds a
scatter-gather description of the user buffer.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..hw.cpu import CPU, Core
from ..sched.qos import QOS_NORMAL, Qos, RetryPolicy, SchedRejected
from ..transport.rpc import RemoteCallError, RpcChannel
from .ninep import Tclunk, Tfsync, Tmkdir, Topen, Tread, Treaddir, Tremove, Tstat, Twrite, wire_bytes
from .vfs import FsBackend

__all__ = ["SolrosFsBackend"]

# Stub CPU work (host-unit ns; runs on the Phi so pays its multiplier).
STUB_BASE_UNITS = 350          # VFS glue + RPC marshalling
STUB_PAGE_UNITS = 120          # per-page scatter-gather construction


def _sctx(span):
    return span.ctx() if span is not None else None


class SolrosFsBackend(FsBackend):
    """The co-processor side of the Solros file-system service."""

    name = "solros"

    def __init__(
        self,
        channel: RpcChannel,
        phi_cpu: CPU,
        qos: Optional[Qos] = None,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
    ):
        self.channel = channel
        self.phi_cpu = phi_cpu
        self.qos = qos or QOS_NORMAL
        self.retry = retry or RetryPolicy()
        self._rng = random.Random(
            f"fs-stub/{channel.name}/{self.qos.priority}/{retry_seed}"
        )
        self._buffer_seq = 0
        self.retries = 0     # backoff sleeps taken
        self.rejections = 0  # SchedRejected verdicts seen

    def with_qos(self, qos: Qos, retry_seed: int = 0) -> "SolrosFsBackend":
        """A sibling stub over the same channel with different QoS.

        Tenants on one co-processor share the RPC rings but can carry
        their own priority class and deadline (buffer ids stay unique:
        the sequence counter is shared with the parent)."""
        sibling = SolrosFsBackend(
            self.channel, self.phi_cpu, qos=qos, retry=self.retry,
            retry_seed=retry_seed,
        )
        sibling._next_buffer = self._next_buffer  # share the id space
        return sibling

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _charge(self, core: Core, nbytes: int = 0) -> Generator:
        pages = (nbytes + 4095) // 4096
        yield from core.compute(
            STUB_BASE_UNITS + STUB_PAGE_UNITS * pages, "branchy"
        )

    def _root(self, core: Core, op: str, **attrs):
        """Open the request's root span (one per delegated syscall).

        The stub is where a Solros request is born, so its span is the
        trace root; everything downstream (ring phases, proxy, devices)
        hangs off the context returned here.  None when tracing is off.
        """
        tracer = self.channel.tracer
        if not tracer.enabled:
            return None
        return tracer.begin(f"fs.{op}", "stub", parent=None, core=core, **attrs)

    def _finish(self, span, **attrs) -> None:
        if span is not None:
            self.channel.tracer.end(span, **attrs)

    def _call(self, core: Core, msg: Any, ctx=None) -> Generator:
        """Ship one 9P message, absorbing transient failures.

        Re-issues on any *transient* cause (``retry.retryable``):
        admission-control pushback (``SchedRejected``), RPC timeouts,
        and injected device/transport errors (``repro.faults``) — with
        bounded, deterministically-seeded exponential backoff based at
        the scheduler's retry-after hint when one is present.  Every
        re-issue carries the same idempotency sequence number, so a
        request that actually completed server-side (the timeout
        raced the response) is answered from the proxy's result cache.

        Retrying stops — raising the last cause — when the attempt
        budget is spent *or* the request's QoS deadline has already
        expired: backing off past the deadline could only produce a
        late result the caller no longer wants.
        """
        size = wire_bytes(msg)
        engine = self.channel.engine
        deadline = None
        if self.qos.deadline_ns is not None:
            deadline = engine.now + self.qos.deadline_ns
        dedup = None
        if (
            self.channel.default_timeout_ns is not None
            or self.channel.faults.plan is not None
        ):
            dedup = self.channel.next_dedup()
        attempt = 0
        while True:
            try:
                result = yield from self.channel.call(
                    core, "9p", msg, size=size, ctx=ctx,
                    priority=self.qos.priority, deadline=deadline,
                    dedup=dedup,
                )
                return result
            except RemoteCallError as err:
                cause = err.cause
                if not self.retry.retryable(cause):
                    raise
                if isinstance(cause, SchedRejected):
                    self.rejections += 1
                attempt += 1
                if attempt >= self.retry.max_tries:
                    raise
                if deadline is not None and engine.now >= deadline:
                    raise
                self.retries += 1
                self.channel.faults.rpc_retry()
                yield self.retry.delay(
                    attempt - 1, self._rng,
                    getattr(cause, "retry_after_ns", None),
                )

    def _next_buffer(self) -> int:
        self._buffer_seq += 1
        return self._buffer_seq

    # ------------------------------------------------------------------
    # FsBackend interface
    # ------------------------------------------------------------------
    def open(self, core: Core, path: str, flags: int) -> Generator:
        span = self._root(core, "open", path=path)
        try:
            yield from self._charge(core)
            fid = yield from self._call(core, Topen(path, flags), ctx=_sctx(span))
            return fid
        finally:
            self._finish(span)

    def close(self, core: Core, handle: Any) -> Generator:
        span = self._root(core, "close")
        try:
            yield from self._charge(core)
            yield from self._call(core, Tclunk(handle), ctx=_sctx(span))
        finally:
            self._finish(span)

    def pread(self, core: Core, handle: Any, offset: int, nbytes: int) -> Generator:
        span = self._root(core, "pread", offset=offset, nbytes=nbytes)
        try:
            yield from self._charge(core, nbytes)
            data = yield from self._call(
                core,
                Tread(
                    fid=handle,
                    offset=offset,
                    count=nbytes,
                    target_node=self.phi_cpu.node,
                    buffer_id=self._next_buffer(),
                ),
                ctx=_sctx(span),
            )
            return data
        finally:
            self._finish(span)

    def pwrite(
        self,
        core: Core,
        handle: Any,
        offset: int,
        data: Optional[bytes],
        length: Optional[int],
    ) -> Generator:
        nbytes = len(data) if data is not None else int(length or 0)
        span = self._root(core, "pwrite", offset=offset, nbytes=nbytes)
        try:
            yield from self._charge(core, nbytes)
            written = yield from self._call(
                core,
                Twrite(
                    fid=handle,
                    offset=offset,
                    count=nbytes,
                    source_node=self.phi_cpu.node,
                    buffer_id=self._next_buffer(),
                    data=data,
                ),
                ctx=_sctx(span),
            )
            return written
        finally:
            self._finish(span)

    def fsync(self, core: Core, handle: Any) -> Generator:
        span = self._root(core, "fsync")
        try:
            yield from self._charge(core)
            yield from self._call(core, Tfsync(handle), ctx=_sctx(span))
        finally:
            self._finish(span)

    def stat(self, core: Core, path: str) -> Generator:
        span = self._root(core, "stat", path=path)
        try:
            yield from self._charge(core)
            result = yield from self._call(core, Tstat(path), ctx=_sctx(span))
            return result
        finally:
            self._finish(span)

    def unlink(self, core: Core, path: str) -> Generator:
        span = self._root(core, "unlink", path=path)
        try:
            yield from self._charge(core)
            yield from self._call(core, Tremove(path), ctx=_sctx(span))
        finally:
            self._finish(span)

    def mkdir(self, core: Core, path: str) -> Generator:
        span = self._root(core, "mkdir", path=path)
        try:
            yield from self._charge(core)
            yield from self._call(core, Tmkdir(path), ctx=_sctx(span))
        finally:
            self._finish(span)

    def readdir(self, core: Core, path: str) -> Generator:
        span = self._root(core, "readdir", path=path)
        try:
            yield from self._charge(core)
            names = yield from self._call(core, Treaddir(path), ctx=_sctx(span))
            return names
        finally:
            self._finish(span)
