"""NVMe SSD device model (Intel 750-class).

Timing-only: the device charges simulated time for doorbell writes,
command processing, flash access, data DMA, and completion interrupts;
the *bytes* live in :mod:`repro.fs.blockdev`, which layers functional
storage on top of this model.

The model captures the three effects the paper's file-system evaluation
depends on:

* the device's own DMA engine moves data directly to any PCIe-mapped
  target — host RAM or co-processor memory (P2P, §4.3.2) — with
  cross-NUMA P2P throttled by the fabric's relay cap;
* each command costs a doorbell (one PCIe transaction) and a completion
  interrupt (host CPU time, serialized on the IRQ line);
* Solros' io-vector ioctls coalesce all commands of one read/write call
  into a single doorbell ring and a single interrupt (§5, "Optimized
  NVMe device driver"), which is why Phi-Solros can beat even the host
  in Figure 1(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from ..obs.hub import NULL_HUB
from ..sim.engine import Engine, SimError
from ..sim.resources import BandwidthLink, Resource
from .cpu import CPU, Core
from .params import NvmeParams
from .topology import Fabric

__all__ = ["NvmeOp", "NvmeDevice", "NvmeStats"]


@dataclass(frozen=True)
class NvmeOp:
    """One I/O request: ``nbytes`` at byte ``offset``, data at ``target``.

    ``target`` is a topology node name: host RAM ("numa0"/"numa1") for
    buffered I/O, or a co-processor node ("phi2") for peer-to-peer.
    """

    op: str            # 'read' | 'write'
    offset: int        # byte offset on the device
    nbytes: int
    target: str        # topology node receiving/supplying the data

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"bad NVMe op: {self.op!r}")
        if self.offset < 0 or self.nbytes <= 0:
            raise ValueError(f"bad NVMe extent: off={self.offset} n={self.nbytes}")


class NvmeStats:
    """Operational counters (doorbells and interrupts tell the
    coalescing story in the ablation bench)."""

    def __init__(self) -> None:
        self.doorbells = 0
        self.commands = 0
        self.interrupts = 0
        self.bytes_read = 0
        self.bytes_written = 0


class NvmeDevice:
    """The timing model of one NVMe SSD attached to the fabric."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        node: str,
        params: Optional[NvmeParams] = None,
        irq_cpu: Optional[CPU] = None,
        obs=NULL_HUB,
    ):
        self.engine = engine
        self.fabric = fabric
        self.node = node
        self.params = params or NvmeParams()
        # The CPU whose IRQ line takes this device's completions (the
        # control-plane host socket in Solros).
        self.irq_cpu = irq_cpu
        p = self.params
        # Internal flash bandwidth, direction-specific.
        self._read_bus = BandwidthLink(
            engine, p.read_bytes_per_ns, 0, name=f"{node}.flash-read"
        )
        self._write_bus = BandwidthLink(
            engine, p.write_bytes_per_ns, 0, name=f"{node}.flash-write"
        )
        self._slots = Resource(engine, capacity=p.parallelism, name=f"{node}.slots")
        self.stats = NvmeStats()
        # Hooks (repro.obs / repro.faults): null objects unless the
        # system traces or registers a fault plan.
        self.obs = obs
        self.faults = obs.faults
        self.tracer = obs.tracer
        self._h_cmd_bytes = obs.metrics.histogram(f"nvme.{node}.cmd_bytes")

    # ------------------------------------------------------------------
    # Command preparation
    # ------------------------------------------------------------------
    def split_mdts(self, op: NvmeOp) -> List[NvmeOp]:
        """Split a request into MDTS-sized NVMe commands."""
        mdts = self.params.mdts_bytes
        if op.nbytes <= mdts:
            return [op]
        cmds = []
        offset, remaining = op.offset, op.nbytes
        while remaining > 0:
            chunk = min(mdts, remaining)
            cmds.append(NvmeOp(op.op, offset, chunk, op.target))
            offset += chunk
            remaining -= chunk
        return cmds

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        initiator: Core,
        ops: Sequence[NvmeOp],
        coalesce_interrupts: bool = False,
        ctx=None,
    ) -> Generator:
        """Submit ``ops``, wait for all data movement and completion.

        ``initiator`` must be a host core: in Solros only the
        control-plane OS touches doorbell registers (§4), and in the
        baselines the host kernel drives the device too.

        With ``coalesce_interrupts`` (the Solros io-vector driver) the
        whole batch rings the doorbell once and raises one interrupt;
        otherwise every command pays its own doorbell + interrupt.
        """
        if initiator.kind != "host":
            raise SimError(
                "NVMe doorbells are host-only (control-plane mediates I/O)"
            )
        if not ops:
            return
        cmds: List[NvmeOp] = []
        for op in ops:
            cmds.extend(self.split_mdts(op))

        # Fault decisions are drawn here, before spawning, so a failing
        # batch raises at the submitter (which is waiting on all_of)
        # rather than inside an unwaited worker process.  Spiked
        # commands still pay their full timing; the error surfaces
        # after the batch completes, like a real completion-queue
        # entry with a bad status field.
        spikes = []
        failed: Optional[NvmeOp] = None
        for cmd in cmds:
            is_p2p = self.fabric.node(cmd.target).kind == "phi"
            extra, fails = self.faults.nvme_command(cmd.op, is_p2p)
            spikes.append(extra)
            if fails and failed is None:
                failed = cmd

        if coalesce_interrupts:
            yield from self.fabric.remote_tx(initiator, 1)  # one doorbell
            self.stats.doorbells += 1
            workers = [
                self.engine.spawn(
                    self._execute(
                        cmd, ctx=ctx, extra_ns=spikes[i],
                    ),
                    name=f"nvme-{cmd.op}",
                )
                for i, cmd in enumerate(cmds)
            ]
            yield self.engine.all_of(workers)
            yield from self._interrupt()
        else:
            workers = []
            for i, cmd in enumerate(cmds):
                yield from self.fabric.remote_tx(initiator, 1)
                self.stats.doorbells += 1
                workers.append(
                    self.engine.spawn(
                        self._execute(
                            cmd, interrupt=True, ctx=ctx,
                            extra_ns=spikes[i],
                        ),
                        name=f"nvme-{cmd.op}",
                    )
                )
            yield self.engine.all_of(workers)
        if failed is not None:
            from ..faults.plan import NvmeInjectedError

            raise NvmeInjectedError(
                f"injected {failed.op} error on {self.node} "
                f"({failed.nbytes}B @ {failed.offset} -> {failed.target})"
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute(
        self,
        cmd: NvmeOp,
        interrupt: bool = False,
        ctx=None,
        extra_ns: int = 0,
    ) -> Generator:
        p = self.params
        span = None
        if self.tracer.enabled and ctx is not None:
            # One span per NVMe command; parallel commands overlap, so
            # per-category accounting must use interval unions.
            span = self.tracer.begin(
                f"nvme.cmd.{cmd.op}", "device", parent=ctx,
                nbytes=cmd.nbytes, target=cmd.target,
            )
        if self.obs.in_service:
            # Bring-up (mkfs) commands are not measured.
            self._h_cmd_bytes.record(cmd.nbytes)
        yield self._slots.request()
        try:
            self.stats.commands += 1
            yield p.cmd_overhead_ns
            if extra_ns:
                # Injected latency spike (firmware GC pause, thermal
                # throttle) — charged inside the slot like real work.
                yield extra_ns
            if cmd.op == "read":
                yield p.read_latency_ns
                links = [self._read_bus] + self.fabric.path_links(
                    self.node, cmd.target
                )
                yield from self.fabric.transfer_links(links, cmd.nbytes)
                self.stats.bytes_read += cmd.nbytes
            else:
                links = [self._write_bus] + self.fabric.path_links(
                    cmd.target, self.node
                )
                yield from self.fabric.transfer_links(links, cmd.nbytes)
                yield p.write_latency_ns
                self.stats.bytes_written += cmd.nbytes
        finally:
            self._slots.release()
        if span is not None:
            self.tracer.end(span)
        if interrupt:
            yield from self._interrupt()

    def _interrupt(self) -> Generator:
        self.stats.interrupts += 1
        if self.irq_cpu is not None:
            yield from self.irq_cpu.handle_interrupt()
        else:
            yield 0
