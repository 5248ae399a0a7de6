"""Calibrated hardware cost parameters.

Every constant that drives the simulation lives here, together with the
paper evidence it was calibrated against.  Benchmarks and tests import
these instead of hard-coding numbers, and the ablation benches override
them through :class:`HwParams` instances.

Calibration sources (Solros, EuroSys'18):

* §6 setup: two Xeon E5-2670v3 (24 cores each, 8 DMA channels/socket),
  four Xeon Phi (61 cores / 244 threads) on PCIe Gen2 x16; Intel 750
  NVMe SSD (2.4 GB/s seq read, 1.2 GB/s seq write); 100 Gbps Ethernet.
* §6 text: max DMA bandwidth 6.5 GB/s (Phi→host) and 6.0 GB/s
  (host→Phi).
* Figure 4 + §4.2.1: 8 MB DMA is 150× (host) / 116× (Phi) faster than
  load/store memcpy; 64 B memcpy is 2.9× (host) / 12.6× (Phi) faster
  than DMA; host-initiated transfers beat Phi-initiated by 2.3× (DMA)
  and 1.8× (memcpy).
* §4.2.4 / §5: adaptive copy thresholds 1 KB (host) and 16 KB (Phi).
* Figure 1(a) caption: P2P across a NUMA boundary is capped at
  300 MB/s because PCIe packets are relayed across QPI.
* Figure 13: a full file-system stack on the Phi costs ~5× the Solros
  stub; virtio's CPU relay copy is far slower than NVMe DMA.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["CpuParams", "PcieParams", "NvmeParams", "NicParams", "HwParams",
           "HOST_CPU", "PHI_CPU", "default_params", "KB", "MB", "GB",
           "US", "MS"]

# Size and time helpers (bytes / nanoseconds).
KB = 1024
MB = 1024 * KB
GB = 1024 * MB
US = 1_000          # 1 microsecond in ns
MS = 1_000_000      # 1 millisecond in ns

CACHE_LINE = 64


@dataclass(frozen=True)
class CpuParams:
    """Cost model of one processor kind (host Xeon vs Xeon Phi)."""

    kind: str
    cores: int                     # physical cores per socket/card
    # Abstract compute: "work units" are calibrated as nanoseconds on a
    # host core.  Branch-divergent code is disproportionately slow on
    # the Phi's simple in-order cores (§3: I/O stacks are control-flow
    # divergent); SIMD-friendly code is where the Phi is competitive.
    scalar_mult: float             # ns per work unit, scalar code
    branchy_mult: float            # ns per work unit, branch-divergent
    simd_mult: float               # ns per work unit, vectorizable
    # Cache-coherence model (for the Fig. 8 contention experiments).
    l1_ns: int                     # hit in own cache
    line_transfer_ns: int          # cache line moves between cores
    line_share_ns: int             # directory occupancy of a read snoop
    atomic_extra_ns: int           # extra cost of an atomic RMW
    # OS-ish overheads.
    syscall_ns: int
    interrupt_ns: int
    # PCIe access costs when this CPU is the initiator.
    pcie_tx_ns: int                # one 64-byte load/store transaction
    dma_setup_ns: int              # DMA channel programming
    dma_rate_scale: float          # fraction of link bw this initiator gets
    dma_channels: int
    # Local memory copy bandwidth (bytes/ns) for staging copies.
    local_memcpy_bytes_per_ns: float
    # Adaptive-copy threshold (§5): below => load/store, above => DMA.
    adaptive_copy_threshold: int


# Host Xeon E5-2670 v3: fast, out-of-order cores.
#
# pcie_tx_ns = 1_600 gives a load/store PCIe memcpy bandwidth of
# 64 B / 1.6 us = 40 MB/s, which makes an 8 MB DMA
# (8 MB / 6.0 GB/s + setup = ~1.4 ms) about 150x faster than the 8 MB
# memcpy (~210 ms) -- the Figure 4 host ratio.  dma_setup_ns = 4_600
# makes a 64 B memcpy (1.6 us) 2.9x faster than a 64 B DMA.
HOST_CPU = CpuParams(
    kind="host",
    cores=24,
    scalar_mult=1.0,
    branchy_mult=1.0,
    simd_mult=1.0,
    l1_ns=2,
    line_transfer_ns=60,
    line_share_ns=20,
    atomic_extra_ns=15,
    syscall_ns=1_500,
    interrupt_ns=4_000,
    pcie_tx_ns=1_600,
    dma_setup_ns=4_600,
    dma_rate_scale=1.0,
    dma_channels=8,
    local_memcpy_bytes_per_ns=8.0,
    adaptive_copy_threshold=1 * KB,
)

# Xeon Phi (Knights Corner): 61 slow in-order cores.
#
# pcie_tx_ns = 2_900 is 1.8x the host (the Figure 4 memcpy initiator
# asymmetry); dma_rate_scale = 1/2.3 is the DMA initiator asymmetry.
# dma_setup_ns = 36_000 makes a 64 B Phi memcpy (2.9 us) 12.6x faster
# than a 64 B Phi-initiated DMA, and the 8 MB ratio lands at ~116x.
PHI_CPU = CpuParams(
    kind="phi",
    cores=61,
    scalar_mult=4.0,
    branchy_mult=8.0,
    simd_mult=1.4,
    l1_ns=8,
    line_transfer_ns=260,
    line_share_ns=95,
    atomic_extra_ns=90,
    syscall_ns=5_000,
    interrupt_ns=12_000,
    pcie_tx_ns=2_900,
    dma_setup_ns=36_000,
    dma_rate_scale=1.0 / 2.3,
    dma_channels=8,
    local_memcpy_bytes_per_ns=2.0,
    adaptive_copy_threshold=16 * KB,
)


@dataclass(frozen=True)
class PcieParams:
    """PCIe fabric parameters (Gen2 x16 in the paper's testbed)."""

    # Direction-dependent peak DMA bandwidth (bytes/ns == GB/s), §6.
    phi_to_host_bytes_per_ns: float = 6.5
    host_to_phi_bytes_per_ns: float = 6.0
    # Generic device link (NVMe, NIC) peak.
    device_link_bytes_per_ns: float = 6.0
    link_latency_ns: int = 600
    # QPI socket interconnect.
    qpi_bytes_per_ns: float = 12.0
    qpi_latency_ns: int = 400
    # Figure 1(a): P2P relayed across the QPI boundary is capped at
    # ~300 MB/s because a processor relays PCIe packets.
    cross_numa_p2p_bytes_per_ns: float = 0.3


@dataclass(frozen=True)
class NvmeParams:
    """Intel 750-class NVMe SSD model."""

    read_bytes_per_ns: float = 2.4    # §6: 2.4 GB/s sequential read
    write_bytes_per_ns: float = 1.2   # §6: 1.2 GB/s sequential write
    read_latency_ns: int = 70_000     # flash read + FTL, QD1 4K ~ 80 us
    write_latency_ns: int = 25_000    # write-back cache absorbs writes
    cmd_overhead_ns: int = 8_000      # submission/completion processing
    mdts_bytes: int = 128 * KB        # max data transfer per NVMe command
    parallelism: int = 32             # internal channel/die parallelism
    block_size: int = 4096


@dataclass(frozen=True)
class NicParams:
    """100 GbE NIC + external client link."""

    wire_bytes_per_ns: float = 12.5   # 100 Gbps
    wire_latency_ns: int = 2_000      # switch + propagation, one way
    per_packet_ns: int = 120          # descriptor handling (~8 Mpps)
    mtu: int = 1500


@dataclass(frozen=True)
class HwParams:
    """Bundle of every hardware parameter; override with ``replace``."""

    host: CpuParams = HOST_CPU
    phi: CpuParams = PHI_CPU
    pcie: PcieParams = field(default_factory=PcieParams)
    nvme: NvmeParams = field(default_factory=NvmeParams)
    nic: NicParams = field(default_factory=NicParams)
    n_phis: int = 4
    host_sockets: int = 2

    def with_overrides(self, **kwargs) -> "HwParams":
        """A copy with top-level fields replaced."""
        return replace(self, **kwargs)


def default_params() -> HwParams:
    """The paper's testbed configuration."""
    return HwParams()
