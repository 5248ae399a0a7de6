"""The data-plane OS: the lean co-processor side of Solros (§4).

Per the paper, the data-plane OS keeps only essential task/memory
management and a set of RPC stubs; everything I/O is delegated.  Here
it owns the co-processor's RPC channel to the control plane (whose
master rings live in *its* memory so its ring operations are local),
the VFS mounted on the Solros file-system stub, and — once the network
service attaches — the socket layer on the TCP stub.
"""

from __future__ import annotations

from typing import Optional

from ..fs.stub import SolrosFsBackend
from ..fs.vfs import Vfs
from ..hw.cpu import CPU, Core
from ..hw.machine import Machine
from ..sim.engine import Engine, SimError
from ..transport.rpc import RpcChannel
from .config import SolrosConfig
from .controlplane import ControlPlaneOS

__all__ = ["DataPlaneOS"]


class DataPlaneOS:
    """One co-processor's OS object."""

    def __init__(
        self,
        machine: Machine,
        phi_index: int,
        control: ControlPlaneOS,
        config: Optional[SolrosConfig] = None,
    ):
        self.machine = machine
        self.engine: Engine = machine.engine
        self.phi_index = phi_index
        self.cpu: CPU = machine.phi(phi_index)
        self.control = control
        self.config = config or control.config
        self.fs_channel: Optional[RpcChannel] = None
        self.fs: Optional[Vfs] = None
        self.net = None  # attached by repro.net.service

    # ------------------------------------------------------------------
    # Service attachment
    # ------------------------------------------------------------------
    def attach_fs(self) -> Vfs:
        """Wire the file-system stub to the control plane's proxy."""
        if self.fs is not None:
            raise SimError(f"phi{self.phi_index}: FS already attached")
        cfg = self.config
        self.fs_channel = RpcChannel(
            self.engine,
            self.machine.fabric,
            client_cpu=self.cpu,
            server_cpu=self.control.host,
            policy=cfg.ring_policy,
            ring_bytes=cfg.rpc_ring_bytes,
            name=f"fs-rpc.phi{self.phi_index}",
            obs=self.control.obs,
        )
        # Bounded-wait recovery (repro.faults): None keeps the legacy
        # wait-forever call path.
        self.fs_channel.default_timeout_ns = cfg.rpc_timeout_ns
        # The response dispatcher runs on the co-processor's last core,
        # leaving low-numbered cores for applications.
        self.fs_channel.start_client(self.cpu.cores[-1])
        self.control.attach_fs_channel(self.fs_channel, self.cpu)
        self.fs = Vfs(SolrosFsBackend(self.fs_channel, self.cpu))
        return self.fs

    def fs_view(self, qos, retry_seed: int = 0) -> Vfs:
        """A VFS whose delegated calls carry ``qos``.

        Tenants on one co-processor share the RPC channel, but each
        view stamps its own priority class and (relative) deadline on
        every 9P message, so the control-plane scheduler can tell a
        latency-critical foreground apart from a background scan.
        ``retry_seed`` decorrelates the tenants' backoff jitter.
        """
        if self.fs is None:
            raise SimError(f"phi{self.phi_index}: attach_fs() first")
        return Vfs(self.fs.backend.with_qos(qos, retry_seed=retry_seed))

    def new_app(self) -> Vfs:
        """An isolated application context (§4: the data-plane OS
        "provides isolation among co-processor applications", relying
        on the Phi's MMU).

        Each context gets its own descriptor table over the shared
        stub: one application's fds are meaningless in another's
        context, and closing files in one never disturbs the other.
        """
        if self.fs is None:
            raise SimError(f"phi{self.phi_index}: attach_fs() first")
        return Vfs(self.fs.backend)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def core(self, i: int) -> Core:
        return self.cpu.core(i)

    def app_cores(self, n: int) -> list:
        """The first ``n`` cores, reserved for application threads."""
        if n > len(self.cpu.cores) - 2:
            raise SimError("not enough application cores")
        return self.cpu.cores[:n]

    def shutdown(self) -> None:
        if self.fs_channel is not None:
            self.fs_channel.stop()
