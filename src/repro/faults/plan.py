"""Fault plans: the declarative side of ``repro.faults``.

A :class:`FaultPlan` is a frozen, seed-carrying description of *which*
failures the simulation should experience and *how often*.  It is pure
data — registering one on :class:`~repro.core.config.SolrosConfig`
builds a :class:`~repro.faults.inject.FaultInjector` into the system's
observability hub, and every injection site in the stack asks that
injector.  With no plan registered the hub carries ``NULL_FAULTS``,
whose answers are always "no fault", and the legacy path is
bit-identical (asserted by the perf-gate's ``faults.off`` guard
metric).

Rates are probabilities per decision point (per NVMe command, per
ring operation, per RPC request, per NIC transfer), each drawn from
its own site-keyed deterministic RNG stream — so adding a new fault
class never perturbs the draws of an existing one, and replaying the
same plan yields byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..sim.engine import SimError

__all__ = [
    "FaultPlan",
    "NvmeFaults",
    "RingFaults",
    "ProxyFaults",
    "NicFaults",
    "InjectedFault",
    "NvmeInjectedError",
]


class InjectedFault(SimError):
    """Base class for failures manufactured by the injector.

    ``transient = True`` marks these as retry-safe: the stub's
    generalized :meth:`~repro.sched.qos.RetryPolicy.retryable` check
    re-issues them, exactly like a real driver retries a transport
    error with an idempotent command.
    """

    errno_name = "EIO"
    transient = True


class NvmeInjectedError(InjectedFault):
    """An NVMe command completed with a media/transport error."""

    errno_name = "EIO"


@dataclass(frozen=True)
class NvmeFaults:
    """Storage-device faults (``hw/nvme.py``).

    ``error_scope`` limits errors to P2P targets (``"p2p"``: commands
    whose DMA target is a co-processor node) or applies them to every
    command (``"all"``).  The P2P scope is what exercises the
    circuit-breaker degradation to the host-staged buffered path.
    """

    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    error_scope: str = "all"            # "all" | "p2p"
    latency_spike_rate: float = 0.0
    latency_spike_ns: int = 250_000

    def __post_init__(self) -> None:
        if self.error_scope not in ("all", "p2p"):
            raise ValueError(f"bad error_scope: {self.error_scope!r}")


@dataclass(frozen=True)
class RingFaults:
    """Transport-ring faults (``transport/ringbuf.py``).

    ``stall_*`` models a transient slot stall (the producer or
    consumer core loses the slot for a while — SMI, scheduler
    preemption); ``pcie_degrade_*`` models link-level degradation
    (retraining, replay) as extra nanoseconds on control-variable
    reads crossing PCIe.
    """

    stall_rate: float = 0.0
    stall_ns: int = 50_000
    pcie_degrade_rate: float = 0.0
    pcie_degrade_ns: int = 5_000


@dataclass(frozen=True)
class ProxyFaults:
    """Control-plane proxy crash/restart (``fs/proxy.py``,
    ``net/service.py``).

    ``crash_at_requests`` lists per-channel request ordinals (1-based)
    that trigger a crash; ``crash_rate`` adds a probabilistic trigger.
    A crashed proxy silently swallows the triggering request and every
    request arriving within ``restart_after_ns`` — clients only
    recover via RPC timeout + idempotent re-issue.  ``targets``
    selects which channels can crash by name prefix (default: only
    the fs service).
    """

    crash_at_requests: Tuple[int, ...] = ()
    crash_rate: float = 0.0
    restart_after_ns: int = 2_000_000
    targets: Tuple[str, ...] = ("fs-rpc",)


@dataclass(frozen=True)
class NicFaults:
    """NIC packet loss (``hw/nic.py``): each hit charges one
    retransmission delay on the affected transfer."""

    drop_rate: float = 0.0
    retransmit_ns: int = 20_000


@dataclass(frozen=True)
class FaultPlan:
    """The complete, seeded chaos schedule for one simulation run."""

    seed: int = 0
    nvme: NvmeFaults = field(default_factory=NvmeFaults)
    ring: RingFaults = field(default_factory=RingFaults)
    proxy: ProxyFaults = field(default_factory=ProxyFaults)
    nic: NicFaults = field(default_factory=NicFaults)

    @property
    def quiet(self) -> bool:
        """True when every rate/trigger is zero (hooks stay dormant)."""
        return (
            self.nvme.read_error_rate == 0.0
            and self.nvme.write_error_rate == 0.0
            and self.nvme.latency_spike_rate == 0.0
            and self.ring.stall_rate == 0.0
            and self.ring.pcie_degrade_rate == 0.0
            and not self.proxy.crash_at_requests
            and self.proxy.crash_rate == 0.0
            and self.nic.drop_rate == 0.0
        )
