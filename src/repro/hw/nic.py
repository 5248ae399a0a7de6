"""NIC and external-wire model (100 GbE to the client machine).

The network evaluation compares where the *TCP stack* runs (host vs
Phi vs Solros split); the wire itself is never the interesting
bottleneck, so the NIC model is simple: MTU-sized packets, per-packet
descriptor handling, and a full-duplex 100 Gbps wire with fixed one-way
latency to the client.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from ..obs.hub import NULL_HUB
from ..sim.engine import Engine, SimError
from ..sim.resources import BandwidthLink
from .params import NicParams
from .topology import Fabric

__all__ = ["NicDevice"]


class NicDevice:
    """One NIC attached to the fabric plus its external wire."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        node: str,
        params: Optional[NicParams] = None,
        obs=NULL_HUB,
    ):
        self.engine = engine
        self.fabric = fabric
        self.node = node
        self.params = params or NicParams()
        p = self.params
        self.wire_tx = BandwidthLink(
            engine, p.wire_bytes_per_ns, p.wire_latency_ns, name=f"{node}.wire-tx"
        )
        self.wire_rx = BandwidthLink(
            engine, p.wire_bytes_per_ns, p.wire_latency_ns, name=f"{node}.wire-rx"
        )
        self.packets_sent = 0
        self.packets_received = 0
        # Fault injection (repro.faults): NULL_FAULTS without a plan.
        self.faults = obs.faults

    def packet_count(self, nbytes: int) -> int:
        """MTU-sized packets needed for a payload of ``nbytes``."""
        if nbytes < 0:
            raise SimError(f"negative payload: {nbytes}")
        return max(1, math.ceil(nbytes / self.params.mtu))

    # ------------------------------------------------------------------
    # Wire side (to/from the external client machine)
    # ------------------------------------------------------------------
    def transmit(self, nbytes: int) -> Generator:
        """Push ``nbytes`` out on the wire (NIC → client)."""
        npkts = self.packet_count(nbytes)
        # Injected packet loss: the transfer pays one retransmit round
        # before the (re)send goes through.
        penalty = self.faults.nic_drop("tx")
        if penalty:
            yield penalty
        yield npkts * self.params.per_packet_ns
        yield from self.wire_tx.transfer(max(nbytes, 1))
        self.packets_sent += npkts

    def receive(self, nbytes: int) -> Generator:
        """Accept ``nbytes`` arriving on the wire (client → NIC)."""
        npkts = self.packet_count(nbytes)
        penalty = self.faults.nic_drop("rx")
        if penalty:
            yield penalty
        yield from self.wire_rx.transfer(max(nbytes, 1))
        yield npkts * self.params.per_packet_ns
        self.packets_received += npkts

    # ------------------------------------------------------------------
    # Fabric side (NIC buffers <-> a processor's memory)
    # ------------------------------------------------------------------
    def dma_to(self, target: str, nbytes: int) -> Generator:
        """NIC DMA engine pushes a received payload to ``target``."""
        yield from self.fabric.transfer(self.node, target, nbytes)

    def dma_from(self, source: str, nbytes: int) -> Generator:
        """NIC DMA engine pulls an outgoing payload from ``source``."""
        yield from self.fabric.transfer(source, self.node, nbytes)
