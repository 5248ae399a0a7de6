"""RPC over a pair of transport rings (§4.3.1, §4.4.1).

The data-plane OS is "a minimal RPC stub": every delegated system call
becomes one request message; the control-plane proxy pulls requests,
executes them, and pushes results back.

Ring placement follows the paper's file-system service: *both* master
rings live in co-processor memory, so the co-processor's enqueue (and
its response dequeue) are local memory operations while the fast host
processor does the PCIe crossing in both directions — exploiting the
initiator asymmetry of Figure 4.

Payloads are small control messages (tens of bytes): bulk data never
rides the RPC ring — the file-system service passes physical addresses
for zero-copy DMA instead (§4.3.1).
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Optional, Sequence

from ..hw.cpu import CPU, Core
from ..hw.topology import Fabric
from ..obs.hub import NULL_HUB
from ..sim.engine import Engine, Event, Interrupt, SimError
from .ringbuf import RingBuffer, RingPolicy

__all__ = [
    "RpcChannel", "RpcMessage", "RpcError", "RemoteCallError", "RpcTimeout",
]

DEFAULT_RING_BYTES = 1 << 20      # 1 MB control rings
DEFAULT_MSG_BYTES = 64            # typical RPC header size

# Server-side dedup cache: completed results remembered per channel.
DEDUP_CACHE_SIZE = 512


class RpcError(SimError):
    """Transport-level RPC failure."""


class RpcTimeout(SimError):
    """A call's response did not arrive within its timeout.

    Transient by construction: the request may have been lost before
    execution (proxy crash) or the response may still be in flight, so
    the caller re-issues with the same dedup sequence number and the
    server's result cache makes the retry idempotent.
    """

    errno_name = "ETIMEDOUT"
    transient = True

    def __init__(self, method: str, timeout_ns: int):
        super().__init__(f"rpc {method!r} timed out after {timeout_ns}ns")
        self.method = method
        self.timeout_ns = timeout_ns


class RemoteCallError(SimError):
    """The server handler raised; carries the original exception.

    ``cause`` is always the *innermost* failure: wrapping a
    RemoteCallError (e.g. a stub re-raising after retry exhaustion, or
    a proxy whose handler itself made a delegated call) flattens to
    the original cause, so callers never have to unwrap
    ``RemoteCallError(RemoteCallError(...))`` chains and
    ``errno_name`` always reflects the root failure.
    """

    def __init__(self, method: str, cause: BaseException):
        while isinstance(cause, RemoteCallError):
            cause = cause.cause
        super().__init__(f"remote {method!r} failed: {cause!r}")
        self.method = method
        self.cause = cause

    @property
    def errno_name(self) -> str:
        return getattr(self.cause, "errno_name", "EIO")


class RpcMessage:
    """One request or response frame.

    ``trace`` is the caller's span context (``repro.obs``), carried
    across the ring so server-side spans link into the client's trace
    tree; None when tracing is off.

    ``priority`` and ``deadline`` are the QoS fields read by the
    control-plane scheduler (``repro.sched``): a small class integer
    (0 = most urgent) and an absolute simulated-ns deadline (None =
    never shed).  Both ride the wire header, so a scheduler-less
    server simply ignores them.

    ``dedup`` is an optional idempotency sequence number: re-issues of
    one logical operation (after a timeout) carry the same number, and
    the server answers duplicates from its result cache instead of
    re-executing the handler.  None (the default) opts out.
    """

    __slots__ = (
        "req_id", "method", "payload", "size", "is_error", "oneway", "trace",
        "priority", "deadline", "dedup",
    )

    def __init__(
        self,
        req_id: int,
        method: str,
        payload: Any,
        size: int,
        is_error: bool = False,
        oneway: bool = False,
        trace=None,
        priority: int = 1,
        deadline: Optional[int] = None,
        dedup: Optional[int] = None,
    ):
        self.req_id = req_id
        self.method = method
        self.payload = payload
        self.size = size
        self.is_error = is_error
        self.oneway = oneway
        self.trace = trace
        self.priority = priority
        self.deadline = deadline
        self.dedup = dedup

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Rpc #{self.req_id} {self.method} {self.size}B>"


def _adapt_handler(handler: Callable[..., Generator]) -> Callable[..., Generator]:
    """Normalize server handlers to the 4-argument form.

    Legacy handlers take ``(core, method, payload)``; trace-aware ones
    take ``(core, method, payload, ctx)``.  Arity is inspected once at
    ``start_server`` time, never per message.
    """
    try:
        params = list(inspect.signature(handler).parameters.values())
    except (TypeError, ValueError):  # builtins/partials without signatures
        return handler
    if any(p.kind is inspect.Parameter.VAR_POSITIONAL for p in params):
        return handler
    positional = [
        p
        for p in params
        if p.kind
        in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
    ]
    if len(positional) >= 4:
        return handler

    def legacy(core: Core, method: str, payload: Any, ctx) -> Generator:
        return handler(core, method, payload)

    return legacy


class RpcChannel:
    """A request ring + response ring between a client (data-plane) and
    a server (control-plane)."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        client_cpu: CPU,
        server_cpu: CPU,
        policy: Optional[RingPolicy] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        name: str = "rpc",
        obs=NULL_HUB,
    ):
        self.engine = engine
        self.fabric = fabric
        self.client_cpu = client_cpu
        self.server_cpu = server_cpu
        self.name = name
        # Both masters at the client (co-processor) — see module doc.
        self.request_ring = RingBuffer(
            engine,
            fabric,
            ring_bytes,
            master_cpu=client_cpu,
            sender_cpu=client_cpu,
            receiver_cpu=server_cpu,
            policy=policy,
            name=f"{name}.req",
            obs=obs,
        )
        self.response_ring = RingBuffer(
            engine,
            fabric,
            ring_bytes,
            master_cpu=client_cpu,
            sender_cpu=server_cpu,
            receiver_cpu=client_cpu,
            policy=policy,
            name=f"{name}.resp",
            obs=obs,
        )
        self._next_id = 0
        self._pending: Dict[int, Event] = {}
        self._dispatcher: Optional[Any] = None
        self._servers: list = []
        self._running = True
        self.calls = 0
        # Fault injection + recovery (repro.faults).  Without a plan
        # the injector is NULL_FAULTS and no timeout is set: the legacy
        # path is bit-identical.
        self.faults = obs.faults
        self.default_timeout_ns: Optional[int] = None
        self._dedup_seq = 0
        self._dedup_done: "OrderedDict[int, tuple]" = OrderedDict()
        self.tracer = obs.tracer
        self._g_inflight = obs.metrics.gauge(f"rpc.{name}.inflight")
        self._m_calls = obs.metrics.meter(f"rpc.{name}.calls")

    def next_dedup(self) -> int:
        """A fresh idempotency sequence number for one logical call."""
        self._dedup_seq += 1
        return self._dedup_seq

    # ------------------------------------------------------------------
    # Client side (data-plane stub)
    # ------------------------------------------------------------------
    def start_client(self, core: Core) -> None:
        """Launch the client's response dispatcher on ``core``."""
        if self._dispatcher is not None:
            raise RpcError("client dispatcher already started")
        self._dispatcher = self.engine.spawn(
            self._client_dispatch(core), name=f"{self.name}.cdisp"
        )

    def call(
        self,
        core: Core,
        method: str,
        payload: Any = None,
        size: int = DEFAULT_MSG_BYTES,
        ctx=None,
        priority: int = 1,
        deadline: Optional[int] = None,
        dedup: Optional[int] = None,
        timeout_ns: Optional[int] = None,
    ) -> Generator:
        """Invoke ``method`` on the server; returns its result.

        Raises :class:`RemoteCallError` if the handler raised.
        ``ctx`` (a span context) links the call into the caller's trace.
        ``priority``/``deadline`` annotate the request for a scheduled
        server (ignored by plain ``start_server`` loops).

        ``timeout_ns`` (or the channel's ``default_timeout_ns``) bounds
        the wait for the response: on expiry the call raises
        :class:`RemoteCallError` with an :class:`RpcTimeout` cause and
        forgets the waiter (a late response is dropped by the
        dispatcher).  ``dedup`` tags the request so a post-timeout
        re-issue is idempotent at the server.
        """
        if self._dispatcher is None:
            raise RpcError("start_client() must be called first")
        if timeout_ns is None:
            timeout_ns = self.default_timeout_ns
        self._next_id += 1
        req_id = self._next_id
        done = self.engine.event()
        self._pending[req_id] = done
        self.calls += 1
        span = None
        send_ctx = ctx
        if self.tracer.enabled and ctx is not None:
            span = self.tracer.begin(
                f"rpc.{method}", "transport", parent=ctx, core=core,
                channel=self.name, size=size,
            )
            send_ctx = span.ctx()
        self._g_inflight.add(1)
        msg = RpcMessage(
            req_id, method, payload, size, trace=send_ctx,
            priority=priority, deadline=deadline, dedup=dedup,
        )
        yield from self.request_ring.send(core, msg, size, ctx=send_ctx)
        if timeout_ns is None:
            response: RpcMessage = yield done
        else:
            which, value = yield self.engine.any_of(
                [done, self.engine.timeout(timeout_ns)]
            )
            if which != 0:
                self._pending.pop(req_id, None)
                self._g_inflight.add(-1)
                if span is not None:
                    self.tracer.end(span, error=True, timeout=True)
                self.faults.rpc_timeout()
                raise RemoteCallError(method, RpcTimeout(method, timeout_ns))
            response = value
        self._g_inflight.add(-1)
        self._m_calls.add(size + response.size)
        if span is not None:
            self.tracer.end(span, error=response.is_error)
        if response.is_error:
            raise RemoteCallError(method, response.payload)
        return response.payload

    def notify(
        self,
        core: Core,
        method: str,
        payload: Any = None,
        size: int = DEFAULT_MSG_BYTES,
        ctx=None,
    ) -> Generator:
        """Fire-and-forget message (no response expected)."""
        self._next_id += 1
        msg = RpcMessage(
            self._next_id, method, payload, size, oneway=True, trace=ctx
        )
        yield from self.request_ring.send(core, msg, size, ctx=ctx)

    def _client_dispatch(self, core: Core) -> Generator:
        try:
            while self._running:
                msg: RpcMessage = yield from self.response_ring.recv(core)
                waiter = self._pending.pop(msg.req_id, None)
                if waiter is not None:
                    waiter.succeed(msg)
        except Interrupt:
            pass  # clean shutdown via stop()

    # ------------------------------------------------------------------
    # Server side (control-plane proxy)
    # ------------------------------------------------------------------
    def start_server(
        self,
        cores: Sequence[Core],
        handler: Callable[..., Generator],
        response_size: int = DEFAULT_MSG_BYTES,
    ) -> None:
        """Launch one proxy worker per core.

        ``handler(core, method, payload)`` is a generator returning the
        result object; exceptions are shipped back to the caller.  A
        handler taking a fourth positional argument also receives the
        request's span context (None when tracing is off).
        """
        if not cores:
            raise RpcError("need at least one server core")
        handler = _adapt_handler(handler)
        for core in cores:
            proc = self.engine.spawn(
                self._server_loop(core, handler, response_size),
                name=f"{self.name}.srv{core.cid}",
            )
            self._servers.append(proc)

    def _server_loop(
        self,
        core: Core,
        handler: Callable[[Core, str, Any], Generator],
        response_size: int,
    ) -> Generator:
        try:
            yield from self._serve(core, handler, response_size)
        except Interrupt:
            pass  # clean shutdown via stop()

    def _serve(
        self,
        core: Core,
        handler: Callable[..., Generator],
        response_size: int,
    ) -> Generator:
        while self._running:
            msg: RpcMessage = yield from self.request_ring.recv(core)
            yield from self.serve_one(core, msg, handler, response_size)

    def serve_one(
        self,
        core: Core,
        msg: RpcMessage,
        handler: Callable[..., Generator],
        response_size: int,
    ) -> Generator:
        """Execute one already-received request and ship its reply.

        This is the per-message body of the classic server loop, split
        out so a control-plane scheduler can receive in one process and
        execute in another (its worker pool) with identical semantics.
        """
        span = None
        hctx = msg.trace
        if self.tracer.enabled and msg.trace is not None:
            span = self.tracer.begin(
                f"rpc.serve.{msg.method}", "proxy", parent=msg.trace,
                core=core, channel=self.name,
            )
            hctx = span.ctx()
        if self.faults.proxy_request(self.name):
            # Injected proxy crash: the request vanishes without a
            # reply.  The client recovers via timeout + re-issue.
            if span is not None:
                self.tracer.end(span, error=True, dropped=True)
            return
        if msg.oneway:
            try:
                yield from handler(core, msg.method, msg.payload, hctx)
            except Exception:
                pass  # nowhere to report a one-way failure
            if span is not None:
                self.tracer.end(span, oneway=True)
            return
        cached = (
            self._dedup_done.get(msg.dedup) if msg.dedup is not None else None
        )
        if cached is not None:
            # A duplicate of an already-completed request (the client
            # timed out and re-issued): answer from the result cache
            # without re-executing the handler.
            self.faults.dedup_hit()
            reply = RpcMessage(
                msg.req_id, msg.method, cached[0], response_size,
                trace=msg.trace,
            )
        else:
            try:
                result = yield from handler(
                    core, msg.method, msg.payload, hctx
                )
                reply = RpcMessage(
                    msg.req_id, msg.method, result, response_size,
                    trace=msg.trace,
                )
                if msg.dedup is not None:
                    self._dedup_done[msg.dedup] = (result,)
                    while len(self._dedup_done) > DEDUP_CACHE_SIZE:
                        self._dedup_done.popitem(last=False)
            except Exception as error:  # noqa: BLE001 - shipped to caller
                reply = RpcMessage(
                    msg.req_id, msg.method, error, response_size,
                    is_error=True, trace=msg.trace,
                )
        if span is not None:
            self.tracer.end(span, error=reply.is_error)
        yield from self.response_ring.send(
            core, reply, reply.size, ctx=msg.trace
        )

    def reply_error(
        self,
        core: Core,
        msg: RpcMessage,
        error: BaseException,
        response_size: int = DEFAULT_MSG_BYTES,
    ) -> Generator:
        """Answer ``msg`` with an error without running any handler.

        Used by the scheduler for admission rejections and shed
        requests: the client sees the same :class:`RemoteCallError`
        wrapping it would get from a raising handler.
        """
        if msg.oneway:
            return
        reply = RpcMessage(
            msg.req_id, msg.method, error, response_size,
            is_error=True, trace=msg.trace,
        )
        yield from self.response_ring.send(
            core, reply, reply.size, ctx=msg.trace
        )

    # ------------------------------------------------------------------
    # Scheduled server (control-plane QoS path, repro.sched)
    # ------------------------------------------------------------------
    def start_scheduled_server(
        self,
        core: Core,
        scheduler,
        source: str,
        handler: Callable[..., Generator],
        response_size: int = DEFAULT_MSG_BYTES,
    ) -> None:
        """Drain the request ring into a control-plane scheduler.

        One *puller* process on ``core`` receives requests and submits
        them to ``scheduler`` (a ``repro.sched.RequestScheduler``)
        tagged with ``source`` (the co-processor's name).  Admission
        rejections are answered immediately on this core; admitted
        requests execute later on the scheduler's shared worker pool
        via :meth:`serve_one`.
        """
        handler = _adapt_handler(handler)
        scheduler.register_source(source, self)
        proc = self.engine.spawn(
            self._scheduled_pull(core, scheduler, source, handler,
                                 response_size),
            name=f"{self.name}.pull{core.cid}",
        )
        self._servers.append(proc)

    def _scheduled_pull(
        self,
        core: Core,
        scheduler,
        source: str,
        handler: Callable[..., Generator],
        response_size: int,
    ) -> Generator:
        try:
            while self._running:
                msg: RpcMessage = yield from self.request_ring.recv(core)
                verdict = scheduler.submit(
                    source, self, msg, handler, response_size
                )
                if verdict is not None:
                    yield from self.reply_error(
                        core, msg, verdict, response_size
                    )
        except Interrupt:
            pass  # clean shutdown via stop()

    # ------------------------------------------------------------------
    # Shutdown (tests / examples)
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Interrupt dispatcher and server loops."""
        self._running = False
        if self._dispatcher is not None and self._dispatcher.alive:
            self._dispatcher.interrupt("rpc stop")
        for proc in self._servers:
            if proc.alive:
                proc.interrupt("rpc stop")
