"""The control-plane request scheduler.

One :class:`RequestScheduler` serves a whole control plane: every
co-processor's RPC channel gets a *puller* (see
:meth:`repro.transport.rpc.RpcChannel.start_scheduled_server`) that
drains its request ring and submits into this scheduler, and a shared
:class:`~repro.sched.workers.ElasticWorkerPool` executes admitted
requests in the order the dispatch policy decides.

Division of labor:

* **submit** (called by ring pullers, plain function) — classify,
  apply admission control (bounded per-class queues + per-source
  credit windows), enqueue, wake a worker, and let the pool grow.
  Rejections return a :class:`SchedRejected` verdict (never raise);
  the puller ships it back as the RPC's error reply.
* **pop_ready** (called by pool workers) — run the dispatch policy and
  shed expired-deadline requests at dispatch time (they cost a reply,
  not device bandwidth).
* **execute** (pool workers, generator) — account queue wait, run the
  handler via the channel's ``serve_one``, account service time and
  per-source shares.

Everything is deterministic: with ``record_decisions=True`` the
scheduler appends one tuple per decision, and two runs with identical
seeds produce identical logs (asserted in ``tests/test_sched.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..obs.hub import NULL_HUB
from ..sim.engine import Engine, SimError
from .policy import DEFAULT_DRR_QUANTUM, make_policy
from .qos import SchedDeadlineExceeded, SchedRejected, clamp_class
from .workers import ElasticWorkerPool

__all__ = ["RequestScheduler", "SchedRequest", "SchedStats"]


class SchedRequest:
    """One admitted RPC waiting for (or under) service."""

    __slots__ = (
        "seq",
        "source",
        "channel",
        "msg",
        "handler",
        "response_size",
        "cls",
        "deadline",
        "cost",
        "t_submit",
        "shed",
    )

    def __init__(
        self,
        seq: int,
        source: str,
        channel: Any,
        msg: Any,
        handler: Callable[..., Generator],
        response_size: int,
        cls: int,
        deadline: Optional[int],
        cost: int,
        t_submit: int,
    ):
        self.seq = seq
        self.source = source
        self.channel = channel
        self.msg = msg
        self.handler = handler
        self.response_size = response_size
        self.cls = cls
        self.deadline = deadline
        self.cost = cost
        self.t_submit = t_submit
        self.shed = False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SchedRequest #{self.seq} {self.source} c{self.cls} "
            f"{self.cost}B>"
        )


class _SourceStats:
    __slots__ = ("requests", "bytes", "wait_ns")

    def __init__(self) -> None:
        self.requests = 0
        self.bytes = 0
        self.wait_ns: List[int] = []


class SchedStats:
    """Plain-Python counters (benches read these with obs off)."""

    def __init__(self) -> None:
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.completed = 0
        self.wait_ns: List[int] = []
        self.service_ns: List[int] = []
        self.per_source: Dict[str, _SourceStats] = {}
        self.depth_high_water = 0

    def source(self, name: str) -> _SourceStats:
        stats = self.per_source.get(name)
        if stats is None:
            stats = self.per_source[name] = _SourceStats()
        return stats

    def shares(self) -> Dict[str, float]:
        """Fraction of served bytes per source."""
        total = sum(s.bytes for s in self.per_source.values())
        if not total:
            return {name: 0.0 for name in self.per_source}
        return {
            name: stats.bytes / total
            for name, stats in sorted(self.per_source.items())
        }


class RequestScheduler:
    """Priority/deadline-aware dispatch between RPC rings and workers."""

    def __init__(
        self,
        engine: Engine,
        host_cpu,
        policy: str = "fifo",
        *,
        class_capacity: int = 64,
        source_credits: int = 32,
        shed_expired: bool = True,
        drr_quantum: int = DEFAULT_DRR_QUANTUM,
        workers_min: int = 2,
        workers_max: int = 8,
        grow_depth_per_worker: int = 2,
        idle_shrink_ns: int = 200_000,
        rt_reserve: int = 1,
        core_alloc: Optional[Callable[[int], int]] = None,
        record_decisions: bool = False,
        name: str = "sched",
        obs=NULL_HUB,
    ):
        if class_capacity < 1 or source_credits < 1:
            raise SimError("admission bounds must be >= 1")
        self.engine = engine
        self.host_cpu = host_cpu
        self.name = name
        self.policy = make_policy(policy, drr_quantum)
        self.class_capacity = class_capacity
        self.source_credits = source_credits
        self.shed_expired = shed_expired
        self.record_decisions = record_decisions
        self.stats = SchedStats()
        self.decision_log: List[Tuple] = []
        self._outstanding: Dict[str, int] = {}  # queued + in service
        self._channels: Dict[str, Any] = {}
        self._inflight = 0
        self._running = True
        self._draining = False
        self._idle_waiters: List = []
        # Metrics only: the RPC serve spans already cover scheduled
        # execution.  Created before the pool starts, which samples
        # sched.workers once its permanent workers are staffed.
        self.metrics = metrics = obs.metrics
        stats = self.stats
        metrics.counter("sched.submitted", lambda: stats.submitted)
        metrics.counter("sched.admitted", lambda: stats.admitted)
        metrics.counter("sched.rejected", lambda: stats.rejected)
        metrics.counter("sched.shed", lambda: stats.shed)
        self._g_depth = metrics.gauge("sched.queue.depth")
        self._g_class_depth = {
            cls: metrics.gauge(f"sched.queue.depth.c{cls}") for cls in (0, 1, 2)
        }
        self._g_workers = metrics.gauge("sched.workers")
        self._h_wait = metrics.histogram("sched.wait_ns")
        self._h_service = metrics.histogram("sched.service_ns")
        # Worker staffing.
        self._core_alloc = core_alloc
        self._next_fallback_core = 0
        self.pool = ElasticWorkerPool(
            engine,
            self,
            min_workers=workers_min,
            max_workers=workers_max,
            grow_depth_per_worker=grow_depth_per_worker,
            idle_shrink_ns=idle_shrink_ns,
            rt_reserve=rt_reserve if self.policy.class_aware else 0,
        )
        self.pool.start()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_source(self, source: str, channel) -> None:
        """Remember the channel serving ``source`` (introspection)."""
        self._channels[source] = channel
        self._outstanding.setdefault(source, 0)

    def worker_core(self):
        """Allocate a host core for a new pool worker."""
        if self._core_alloc is not None:
            return self.host_cpu.core(self._core_alloc(1))
        core = self.host_cpu.core(
            self._next_fallback_core % len(self.host_cpu.cores)
        )
        self._next_fallback_core += 1
        return core

    # ------------------------------------------------------------------
    # Admission (ring pullers)
    # ------------------------------------------------------------------
    def submit(
        self,
        source: str,
        channel,
        msg,
        handler: Callable[..., Generator],
        response_size: int,
    ) -> Optional[SchedRejected]:
        """Admit ``msg`` or return a rejection verdict (never raises)."""
        now = self.engine.now
        self.stats.submitted += 1
        cls = clamp_class(getattr(msg, "priority", 1))
        payload = getattr(msg, "payload", None)
        # 9P data ops carry their I/O size as ``payload.count``; other
        # payloads (e.g. the net service's tuples, where .count is the
        # sequence method) fall back to the wire size.
        count = getattr(payload, "count", 0)
        if not isinstance(count, int):
            count = 0
        cost = max(count, int(getattr(msg, "size", 1) or 1))
        verdict = self._admit(source, cls, now)
        if verdict is not None:
            self.stats.rejected += 1
            self._log("reject", now, source, cls, verdict.reason)
            return verdict
        seq = self.stats.admitted
        req = SchedRequest(
            seq,
            source,
            channel,
            msg,
            handler,
            response_size,
            cls,
            getattr(msg, "deadline", None),
            cost,
            now,
        )
        self._outstanding[source] = self._outstanding.get(source, 0) + 1
        self.policy.push(req)
        self.stats.admitted += 1
        depth = len(self.policy)
        if depth > self.stats.depth_high_water:
            self.stats.depth_high_water = depth
        self._gauge_depth(cls)
        self._log("admit", now, source, cls, seq)
        self.pool.wake(cls)
        self.pool.maybe_grow(depth)
        return None

    def _admit(
        self, source: str, cls: int, now: int
    ) -> Optional[SchedRejected]:
        if not self._running or self._draining:
            return SchedRejected("scheduler stopping", self._retry_hint())
        if self.policy.class_depth(cls) >= self.class_capacity:
            return SchedRejected(f"class {cls} queue full", self._retry_hint())
        if self._outstanding.get(source, 0) >= self.source_credits:
            return SchedRejected(
                f"source {source} out of credits", self._retry_hint()
            )
        return None

    def _retry_hint(self) -> int:
        """Rough time until capacity frees: current backlog over the
        staffed service rate, floored at one ring poll interval."""
        workers = max(1, self.pool.active)
        return max(2_000, (len(self.policy) * 4_000) // workers)

    # ------------------------------------------------------------------
    # Dispatch (pool workers)
    # ------------------------------------------------------------------
    def pop_ready(self, max_class: Optional[int] = None):
        """Next request per policy; expired ones come back flagged
        ``shed`` so the worker answers without executing."""
        req = self.policy.pop(self.engine.now, max_class)
        if req is None:
            return None
        self._gauge_depth(req.cls)
        now = self.engine.now
        if (
            self.shed_expired
            and req.deadline is not None
            and now > req.deadline
        ):
            req.shed = True
            self._log("shed", now, req.source, req.cls, req.seq)
        else:
            self._log("dispatch", now, req.source, req.cls, req.seq)
        return req

    def execute(self, core, req: SchedRequest) -> Generator:
        """Run one popped request on ``core`` (worker context)."""
        now = self.engine.now
        self._inflight += 1
        try:
            if req.shed:
                self.stats.shed += 1
                if not req.msg.oneway:
                    yield from req.channel.reply_error(
                        core,
                        req.msg,
                        SchedDeadlineExceeded(req.deadline, now),
                        req.response_size,
                    )
                return
            wait = now - req.t_submit
            self.stats.wait_ns.append(wait)
            src = self.stats.source(req.source)
            src.wait_ns.append(wait)
            self._h_wait.record(wait)
            yield from req.channel.serve_one(
                core, req.msg, req.handler, req.response_size
            )
            service = self.engine.now - now
            self.stats.service_ns.append(service)
            self._h_service.record(service)
            self.stats.completed += 1
            src.requests += 1
            src.bytes += req.cost
            if src.requests == 1:
                self.metrics.counter(
                    f"sched.src.{req.source}.bytes", lambda: src.bytes
                )
        finally:
            self._inflight -= 1
            self._outstanding[req.source] -= 1
            self._check_idle()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def depth(self) -> int:
        return len(self.policy)

    def state(self) -> Dict[str, Any]:
        """Point-in-time snapshot (exposed via ``SolrosSystem``)."""
        return {
            "policy": self.policy.name,
            "depth": len(self.policy),
            "class_depth": {
                cls: self.policy.class_depth(cls) for cls in (0, 1, 2)
            },
            "inflight": self._inflight,
            "workers": self.pool.active,
            "workers_high_water": self.pool.high_water,
            "outstanding": dict(sorted(self._outstanding.items())),
            "sources": sorted(self._channels),
            "submitted": self.stats.submitted,
            "admitted": self.stats.admitted,
            "rejected": self.stats.rejected,
            "shed": self.stats.shed,
            "completed": self.stats.completed,
            "shares": self.stats.shares(),
            "draining": self._draining,
            "running": self._running,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> Generator:
        """Stop admitting, wait until queue + in-flight empty, then
        retire the workers.  A timed process (used by clean shutdown
        tests); new submissions get :class:`SchedRejected`."""
        self._draining = True
        while len(self.policy) or self._inflight:
            waiter = self.engine.event()
            self._idle_waiters.append(waiter)
            yield waiter
        self._running = False
        self.pool.retire_all()
        yield 0

    def stop(self) -> None:
        """Hard stop: interrupt every worker (queued requests drop)."""
        self._running = False
        self._draining = True
        self.pool.stop()

    def _check_idle(self) -> None:
        if self._idle_waiters and not len(self.policy) and not self._inflight:
            waiters, self._idle_waiters = self._idle_waiters, []
            for waiter in waiters:
                waiter.succeed()

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    def _gauge_depth(self, cls: int) -> None:
        self._g_depth.set(len(self.policy))
        self._g_class_depth[cls].set(self.policy.class_depth(cls))

    def _log(self, kind: str, now: int, source: str, cls: int, info) -> None:
        if self.record_decisions:
            self.decision_log.append((kind, now, source, cls, info))
