"""`SolrosSystem`: the whole-machine facade.

Builds the simulated testbed, boots the control plane, and attaches
data-plane OSes — the programmatic equivalent of powering on the
paper's server with Solros installed.

Example::

    eng = Engine()
    system = SolrosSystem(eng)
    eng.run_process(system.boot(n_phis=2))

    def app(eng):
        phi = system.dataplane(0)
        core = phi.core(0)
        fd = yield from phi.fs.open(core, "/data", O_CREAT | O_RDWR)
        yield from phi.fs.write(core, fd, data=b"hello")
        ...
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from ..hw.machine import Machine, build_machine
from ..obs.hub import ObservabilityHub, active_capture
from ..sim.engine import Engine, SimError
from .config import SolrosConfig
from .controlplane import ControlPlaneOS
from .dataplane import DataPlaneOS

__all__ = ["SolrosSystem"]


class SolrosSystem:
    """One machine running the Solros split-OS architecture."""

    def __init__(
        self,
        engine: Engine,
        config: Optional[SolrosConfig] = None,
    ):
        self.engine = engine
        self.config = config or SolrosConfig()
        # The hooks every component receives at construction: a
        # process-global capture (the bench CLI's --trace-out) or
        # config.trace turns tracing and metrics on, and a fault plan
        # adds the injector; otherwise the hub carries null objects.
        plan = self.config.fault_plan
        capture = active_capture()
        if capture is not None:
            self.obs = capture.new_hub(engine, label="solros", fault_plan=plan)
        else:
            self.obs = ObservabilityHub(
                engine, enabled=self.config.trace, label="solros",
                fault_plan=plan,
            )
        self.machine: Machine = build_machine(engine, self.config.hw, self.obs)
        self.control = ControlPlaneOS(self.machine, self.config)
        self._dataplanes: Dict[int, DataPlaneOS] = {}
        self._booted = False

    # ------------------------------------------------------------------
    # Bring-up
    # ------------------------------------------------------------------
    def boot(self, n_phis: Optional[int] = None) -> Generator:
        """Format storage and attach data planes (a timed process)."""
        if self._booted:
            raise SimError("already booted")
        yield from self.control.format_storage()
        count = len(self.machine.phis) if n_phis is None else n_phis
        if not 0 <= count <= len(self.machine.phis):
            raise SimError(f"bad co-processor count: {count}")
        for i in range(count):
            dp = DataPlaneOS(self.machine, i, self.control, self.config)
            dp.attach_fs()
            self._dataplanes[i] = dp
        self._booted = True
        return self

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def dataplane(self, i: int) -> DataPlaneOS:
        try:
            return self._dataplanes[i]
        except KeyError:
            raise SimError(f"phi{i} is not attached") from None

    @property
    def dataplanes(self) -> List[DataPlaneOS]:
        return [self._dataplanes[i] for i in sorted(self._dataplanes)]

    @property
    def scheduler(self):
        """The control-plane request scheduler, or None when the
        legacy direct-drain path is active (``sched_policy=None``)."""
        return self.control.scheduler

    def sched_state(self) -> Optional[dict]:
        """Snapshot of the scheduler (policy, depths, shares, counts)."""
        sched = self.control.scheduler
        return None if sched is None else sched.state()

    @property
    def faults(self):
        """The fault injector, or None when no FaultPlan is registered
        (``config.fault_plan=None`` keeps the legacy path)."""
        return None if self.config.fault_plan is None else self.obs.faults

    def faults_state(self) -> Optional[dict]:
        """Snapshot of injected-fault counters + circuit breakers."""
        if self.config.fault_plan is None:
            return None
        state = self.obs.faults.state()
        if self.control.fs_proxy is not None:
            state["breakers"] = self.control.fs_proxy.breaker_snapshots()
        return state

    def shutdown(self) -> None:
        for dp in self._dataplanes.values():
            dp.shutdown()
        if self.control.scheduler is not None:
            self.control.scheduler.stop()
