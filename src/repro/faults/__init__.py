"""repro.faults — deterministic fault injection + recovery machinery.

Injection: a seeded :class:`FaultPlan` registered on
:class:`~repro.core.config.SolrosConfig` drives NVMe errors and
latency spikes, PCIe degradation and ring-slot stalls, proxy
crash/restart, and NIC drops — all on the virtual clock, so chaos
runs are byte-reproducible.  Recovery: RPC timeouts with idempotent
re-issue (sequence-number dedup at the proxy), generalized stub
backoff, and a per-device circuit breaker that degrades the P2P data
path to the buffered one.  See docs/FAULTS.md.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .inject import COUNTER_NAMES, NULL_FAULTS, FaultInjector, NullFaultInjector
from .plan import (
    FaultPlan,
    InjectedFault,
    NicFaults,
    NvmeFaults,
    NvmeInjectedError,
    ProxyFaults,
    RingFaults,
)

__all__ = [
    "FaultPlan",
    "NvmeFaults",
    "RingFaults",
    "ProxyFaults",
    "NicFaults",
    "InjectedFault",
    "NvmeInjectedError",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_FAULTS",
    "COUNTER_NAMES",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
]
