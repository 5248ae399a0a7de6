"""System-level configuration for a Solros deployment."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..faults.plan import FaultPlan
from ..hw.params import HwParams, MB, default_params
from ..transport.ringbuf import RingPolicy

__all__ = ["SolrosConfig"]


@dataclass
class SolrosConfig:
    """Everything needed to boot a simulated Solros machine."""

    hw: HwParams = field(default_factory=default_params)
    # Storage.
    disk_blocks: int = 512 * 1024          # 2 GB of 4 KB blocks
    max_inodes: int = 2048
    # Shared host-side buffer cache (§4.3); None disables it.
    buffer_cache_bytes: Optional[int] = 256 * MB
    # Transport.
    ring_policy: RingPolicy = field(default_factory=RingPolicy)
    rpc_ring_bytes: int = 1 * MB
    # Control plane staffing.
    fs_proxy_workers: int = 4
    net_proxy_workers: int = 2
    # Control-plane request scheduler (repro.sched).  None keeps the
    # legacy path — each channel drained FIFO by its own fixed worker
    # pool, bit-identical to the seed behavior.  Set a policy name
    # ("fifo", "priority", "edf", "drr", "drr+priority") to route all
    # FS RPCs through one shared RequestScheduler with admission
    # control, deadline shedding, and an elastic worker pool.
    sched_policy: Optional[str] = None
    sched_class_capacity: int = 64      # queued requests per class
    sched_source_credits: int = 32      # outstanding requests per Phi
    sched_drr_quantum: int = 256 * 1024  # DRR bytes per visit
    sched_workers_min: int = 2
    sched_workers_max: int = 8
    sched_grow_depth_per_worker: int = 2
    sched_idle_shrink_ns: int = 200_000
    sched_rt_reserve: int = 1           # workers pinned to CLASS_RT
    sched_shed_expired: bool = True
    sched_record_decisions: bool = False  # keep a decision trace
    # Deterministic fault injection + recovery (repro.faults).  None
    # keeps every injection hook dormant and the legacy path
    # bit-identical (guarded by the perf-gate's faults.off metric).
    fault_plan: Optional[FaultPlan] = None
    # Per-call RPC timeout for delegated syscalls.  None disables the
    # timeout machinery entirely (legacy wait-forever semantics); set
    # it when a fault plan can crash proxies, so stubs recover via
    # ETIMEDOUT + idempotent re-issue instead of hanging.
    rpc_timeout_ns: Optional[int] = None
    # Circuit breaker guarding the P2P data path (active only with a
    # fault plan): consecutive failures before opening, and how long
    # an open breaker waits before a half-open probe.
    fault_breaker_threshold: int = 3
    fault_breaker_reset_ns: int = 2_000_000
    # Cross-co-processor file prefetching (§4; needs the buffer cache).
    enable_prefetch: bool = False
    prefetch_min_accesses: int = 4
    prefetch_min_planes: int = 2
    # End-to-end observability (repro.obs).  Off by default: every hot
    # path then sees the shared NullTracer and NULL_METRICS.
    # ``python -m repro.bench --trace-out`` enables it globally via the
    # capture hook instead of this flag.
    trace: bool = False

    def with_overrides(self, **kwargs) -> "SolrosConfig":
        return replace(self, **kwargs)
