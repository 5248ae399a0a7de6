"""The fault injector: deterministic decisions + ``faults.*`` counters.

One :class:`FaultInjector` serves a whole machine.  Every injection
site asks it a yes/no (or how-many-extra-ns) question; each *site*
draws from its own :class:`random.Random` stream keyed by
``faults/<seed>/<site>``, so decisions are independent across sites
and byte-reproducible across runs of the same plan.

The injector counts what it injects in ``counts`` (cheap ints, used by
tests and the chaos bench); the ``faults.*`` counters it registers in
the ``repro.obs`` metrics registry it is built with read those same
ints — the ``faults.*`` rows in docs/OBSERVABILITY.md's catalog.  A
system with no plan gets :data:`NULL_FAULTS` instead: the same
questions, always answered "no fault", and nothing counted.

This module imports nothing from ``repro.obs``: the observability hub
builds the injector, so the dependency runs the other way.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, Tuple

from ..sim.engine import Engine
from .plan import FaultPlan

__all__ = ["FaultInjector", "NullFaultInjector", "NULL_FAULTS"]

# Every series the injector can emit, in catalog order.
COUNTER_NAMES = (
    "faults.nvme.read_errors",
    "faults.nvme.write_errors",
    "faults.nvme.latency_spikes",
    "faults.ring.stalls",
    "faults.pcie.degraded",
    "faults.proxy.crashes",
    "faults.proxy.dropped",
    "faults.nic.drops",
    "faults.rpc.timeouts",
    "faults.rpc.retries",
    "faults.rpc.dedup_hits",
    "faults.breaker.trips",
    "faults.fallback.buffered",
)


class FaultInjector:
    """Runtime oracle for a :class:`~repro.faults.plan.FaultPlan`.

    ``metrics`` is the registry its ``faults.*`` counters live in
    (``repro.obs.NULL_METRICS`` for none).
    """

    def __init__(self, engine: Engine, plan: FaultPlan, metrics):
        self.engine = engine
        self.plan = plan
        # Disarmed sites inject nothing and draw nothing: the control
        # plane arms the injector only once storage is formatted, so a
        # chaos plan never corrupts mkfs, and benches may disarm again
        # around setup work (preallocation) that is not under test.
        self.armed = True
        self._rngs: Dict[str, random.Random] = {}
        # Per-channel proxy-crash bookkeeping.
        self._req_counts: Dict[str, int] = {}
        self._down_until: Dict[str, int] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        for name in COUNTER_NAMES:
            metrics.counter(name, partial(self.counts.__getitem__, name))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rng(self, site: str) -> random.Random:
        rng = self._rngs.get(site)
        if rng is None:
            rng = random.Random(f"faults/{self.plan.seed}/{site}")
            self._rngs[site] = rng
        return rng

    def _hit(self, site: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        return self._rng(site).random() < rate

    def _bump(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # ------------------------------------------------------------------
    # NVMe (hw/nvme.py)
    # ------------------------------------------------------------------
    def nvme_command(self, op: str, is_p2p: bool) -> Tuple[int, bool]:
        """Decide one NVMe command's fate: ``(extra_ns, fails)``.

        Drawn in ``submit`` *before* the command's worker is spawned,
        so a failing batch raises at the submitter (which is waiting)
        instead of inside an unwaited worker process.
        """
        if not self.armed:
            return 0, False
        nv = self.plan.nvme
        extra = 0
        if nv.latency_spike_rate > 0.0 and self._hit(
            f"nvme.spike.{op}", nv.latency_spike_rate
        ):
            extra = nv.latency_spike_ns
            self._bump("faults.nvme.latency_spikes")
        rate = nv.read_error_rate if op == "read" else nv.write_error_rate
        fails = False
        if rate > 0.0 and (nv.error_scope == "all" or is_p2p):
            if self._hit(f"nvme.err.{op}", rate):
                fails = True
                self._bump(
                    "faults.nvme.read_errors"
                    if op == "read"
                    else "faults.nvme.write_errors"
                )
        return extra, fails

    # ------------------------------------------------------------------
    # Transport rings (transport/ringbuf.py)
    # ------------------------------------------------------------------
    def ring_stall(self, ring_name: str) -> int:
        """Extra ns a ring-slot operation loses to a transient stall."""
        rf = self.plan.ring
        if self.armed and self._hit(f"ring.stall.{ring_name}", rf.stall_rate):
            self._bump("faults.ring.stalls")
            return rf.stall_ns
        return 0

    def pcie_degrade(self, ring_name: str) -> int:
        """Extra ns a PCIe control-variable read loses to link
        degradation (retraining / replay)."""
        rf = self.plan.ring
        if self.armed and self._hit(f"pcie.{ring_name}", rf.pcie_degrade_rate):
            self._bump("faults.pcie.degraded")
            return rf.pcie_degrade_ns
        return 0

    # ------------------------------------------------------------------
    # Proxy crash/restart (rpc serve path)
    # ------------------------------------------------------------------
    def proxy_request(self, channel_name: str) -> bool:
        """True when this request must vanish (proxy crashed / down).

        Request ordinals are counted per channel name; a crash opens a
        ``restart_after_ns`` window during which every arrival is
        swallowed too.  The client recovers via timeout + re-issue.
        """
        if not self.armed:
            return False
        pf = self.plan.proxy
        if not any(channel_name.startswith(t) for t in pf.targets):
            return False
        now = self.engine.now
        if now < self._down_until.get(channel_name, 0):
            self._bump("faults.proxy.dropped")
            return True
        n = self._req_counts.get(channel_name, 0) + 1
        self._req_counts[channel_name] = n
        crashed = n in pf.crash_at_requests or (
            pf.crash_rate > 0.0
            and self._hit(f"proxy.{channel_name}", pf.crash_rate)
        )
        if crashed:
            self._down_until[channel_name] = now + pf.restart_after_ns
            self._bump("faults.proxy.crashes")
            self._bump("faults.proxy.dropped")
            return True
        return False

    # ------------------------------------------------------------------
    # NIC (hw/nic.py)
    # ------------------------------------------------------------------
    def nic_drop(self, direction: str) -> int:
        """Retransmission penalty (ns) for a dropped transfer, or 0."""
        nf = self.plan.nic
        if self.armed and self._hit(f"nic.{direction}", nf.drop_rate):
            self._bump("faults.nic.drops")
            return nf.retransmit_ns
        return 0

    # ------------------------------------------------------------------
    # Recovery-side tallies (rpc / stub / breaker / proxy fallback)
    # ------------------------------------------------------------------
    def rpc_timeout(self) -> None:
        self._bump("faults.rpc.timeouts")

    def rpc_retry(self) -> None:
        self._bump("faults.rpc.retries")

    def dedup_hit(self) -> None:
        self._bump("faults.rpc.dedup_hits")

    def breaker_trip(self) -> None:
        self._bump("faults.breaker.trips")

    def fallback_buffered(self) -> None:
        self._bump("faults.fallback.buffered")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Snapshot for determinism assertions and ``faults_state()``."""
        return {
            "seed": self.plan.seed,
            "counts": dict(self.counts),
            "proxy_requests": dict(self._req_counts),
            "proxy_down_until": dict(self._down_until),
        }


class NullFaultInjector:
    """The injector of a system with no :class:`FaultPlan`: every
    decision is "no fault", nothing is counted, and no ``faults.*``
    series exist.  ``plan`` is None, which is what the places whose
    behaviour a plan changes (the stub's dedup sequence, the proxy's
    breaker gate) test."""

    __slots__ = ()

    plan = None

    def nvme_command(self, op: str, is_p2p: bool) -> Tuple[int, bool]:
        return 0, False

    def ring_stall(self, ring_name: str) -> int:
        return 0

    def pcie_degrade(self, ring_name: str) -> int:
        return 0

    def proxy_request(self, channel_name: str) -> bool:
        return False

    def nic_drop(self, direction: str) -> int:
        return 0

    def rpc_timeout(self) -> None:
        pass

    rpc_retry = dedup_hit = breaker_trip = fallback_buffered = rpc_timeout


NULL_FAULTS = NullFaultInjector()
