"""Network testbed wiring: the client machine and the three setups.

§6: "we use a client machine with two Xeon E5-2630 v3 processors (16
cores) ... connected to the server through a 100 Gbps Ethernet.  In
all experiments running Xeon Phi with Linux TCP stack, we configured a
bridge in our server so our client machine can directly access a Xeon
Phi with a designated IP address."

:class:`NetTestbed` builds exactly that: a client endpoint behind the
Ethernet wire, the host endpoint, bridged Phi-Linux endpoints on
demand, and the Solros network proxy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from ..hw.cpu import CPU
from ..hw.machine import Machine
from ..hw.params import HOST_CPU
from ..sim.engine import Engine
from ..transport.ringbuf import RingPolicy
from .service import SolrosNetProxy
from .tcp import BridgedPhiWire, EthernetWire, Network, TcpHost

__all__ = ["NetTestbed", "CLIENT_CPU"]

# The client box: host-class cores, 16 of them.
CLIENT_CPU = replace(HOST_CPU, cores=16)


class NetTestbed:
    """Client + server network environment over a simulated machine."""

    def __init__(self, engine: Engine, machine: Machine, seed: int = 0):
        self.engine = engine
        self.machine = machine
        self.seed = seed
        self.network = Network(engine)
        self.client_cpu = CPU(engine, CLIENT_CPU, name="client", node="client")
        self.client = TcpHost(self.network, "client", self.client_cpu, seed)
        self.host = TcpHost(self.network, "host", machine.host, seed)
        self.network.link(
            "client",
            "host",
            EthernetWire(machine.nic, host_name="host", client_name="client"),
        )
        self._phi_hosts: Dict[int, TcpHost] = {}
        self._proxy: Optional[SolrosNetProxy] = None

    # ------------------------------------------------------------------
    # Phi-Linux endpoints (bridged)
    # ------------------------------------------------------------------
    def phi_linux(self, phi_index: int) -> TcpHost:
        """The stock-Phi TCP endpoint, reachable through the bridge."""
        if phi_index in self._phi_hosts:
            return self._phi_hosts[phi_index]
        phi_cpu = self.machine.phi(phi_index)
        name = f"phi{phi_index}-linux"
        endpoint = TcpHost(self.network, name, phi_cpu, self.seed)
        bridge_core = self.machine.host.cores[-1]
        self.network.link(
            "client",
            name,
            BridgedPhiWire(
                self.machine.nic,
                self.machine.fabric,
                phi_cpu,
                client_name="client",
                bridge_core=bridge_core,
            ),
        )
        self._phi_hosts[phi_index] = endpoint
        return endpoint

    # ------------------------------------------------------------------
    # Solros network service
    # ------------------------------------------------------------------
    def solros_proxy(
        self,
        ring_policy: Optional[RingPolicy] = None,
        workers_per_channel: int = 2,
        scheduler=None,
    ) -> SolrosNetProxy:
        """The control-plane network proxy (host TCP stack underneath).

        ``scheduler`` (a ``repro.sched.RequestScheduler``) routes the
        control RPCs of every attached co-processor through the QoS
        scheduler instead of per-channel FIFO server loops.
        """
        if self._proxy is None:
            self._proxy = SolrosNetProxy(
                self.engine,
                self.network,
                self.host,
                self.machine.host,
                self.machine.fabric,
                ring_policy=ring_policy,
                workers_per_channel=workers_per_channel,
                scheduler=scheduler,
                obs=self.machine.obs,
            )
        return self._proxy
