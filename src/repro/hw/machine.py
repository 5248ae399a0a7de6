"""Machine assembly: the paper's testbed in one object.

:func:`build_machine` wires up the §6 configuration: two host sockets
(24 cores each) on two NUMA domains, four Xeon Phi cards (61 cores
each; phi0/phi1 on NUMA 0, phi2/phi3 on NUMA 1), one NVMe SSD and one
100 GbE NIC on NUMA 0, all joined by the PCIe/QPI fabric.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs.hub import NULL_HUB
from ..sim.engine import Engine, SimError
from .cpu import CPU, Core
from .nic import NicDevice
from .nvme import NvmeDevice
from .params import HwParams, default_params
from .topology import Fabric

__all__ = ["Machine", "build_machine"]


class Machine:
    """The simulated heterogeneous machine.

    ``obs`` is the system's hook bundle (tracer, metrics, fault
    injector); the devices and everything built on this machine take
    their hooks from it.
    """

    def __init__(
        self, engine: Engine, params: Optional[HwParams] = None, obs=NULL_HUB
    ):
        self.engine = engine
        self.obs = obs
        self.params = params or default_params()
        p = self.params
        self.fabric = Fabric(engine, p.pcie)

        # Host sockets sit at the root complexes ("numaN" nodes).
        if p.host_sockets not in (1, 2):
            raise SimError(f"host_sockets must be 1 or 2, got {p.host_sockets}")
        self.host_sockets: List[CPU] = [
            CPU(engine, p.host, name=f"host{i}", node=f"numa{i}")
            for i in range(p.host_sockets)
        ]

        # Xeon Phi cards, split across NUMA domains like the testbed.
        self.phis: List[CPU] = []
        for i in range(p.n_phis):
            numa = 0 if i < (p.n_phis + 1) // 2 else 1
            if p.host_sockets == 1:
                numa = 0
            node = f"phi{i}"
            self.fabric.attach(node, numa, "phi")
            self.phis.append(CPU(engine, p.phi, name=node, node=node))

        # Storage and network devices on NUMA 0.
        self.fabric.attach("nvme0", 0, "nvme")
        self.nvme = NvmeDevice(
            engine, self.fabric, "nvme0", p.nvme,
            irq_cpu=self.host_sockets[0], obs=obs,
        )
        self.fabric.attach("nic0", 0, "nic")
        self.nic = NicDevice(engine, self.fabric, "nic0", p.nic, obs=obs)

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def host(self) -> CPU:
        """The NUMA-0 host socket (where the control-plane OS runs)."""
        return self.host_sockets[0]

    def host_core(self, i: int = 0, socket: int = 0) -> Core:
        return self.host_sockets[socket].core(i)

    def phi(self, i: int) -> CPU:
        try:
            return self.phis[i]
        except IndexError:
            raise SimError(f"no such co-processor: phi{i}") from None

    def phi_core(self, phi_index: int, core_index: int = 0) -> Core:
        return self.phi(phi_index).core(core_index)

    def phi_numa(self, phi_index: int) -> int:
        return self.fabric.node(self.phi(phi_index).node).numa

    def describe(self) -> str:
        """Human-readable inventory (for example scripts)."""
        lines = [
            f"machine: {len(self.host_sockets)} host socket(s) x "
            f"{self.params.host.cores} cores, {len(self.phis)} Xeon Phi x "
            f"{self.params.phi.cores} cores",
        ]
        for phi in self.phis:
            numa = self.fabric.node(phi.node).numa
            lines.append(f"  {phi.node}: numa{numa}")
        lines.append("  nvme0: numa0  (2.4/1.2 GB/s)")
        lines.append("  nic0:  numa0  (100 GbE)")
        return "\n".join(lines)


def build_machine(
    engine: Engine, params: Optional[HwParams] = None, obs=NULL_HUB
) -> Machine:
    """Construct the paper's testbed (or a variant via ``params``)."""
    return Machine(engine, params, obs)
