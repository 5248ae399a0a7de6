"""The Solros transport service: a ring buffer over PCIe (§4.2).

Design points reproduced from the paper:

* **Master/shadow placement** (§4.2.2): the master ring allocates real
  memory on one side; the other side accesses it through a
  system-mapped PCIe window.  Placement is a first-class performance
  decision (e.g. the RPC request ring is mastered at the co-processor
  so its enqueues are local memory operations).
* **Decoupled operations** (Figure 5): ``enqueue``/``dequeue`` only
  reserve/claim a slot; the data copy (``copy_to``/``copy_from``) and
  the readiness flips (``set_ready``/``set_done``) are separate, so
  multiple threads copy concurrently while queue order is maintained.
* **Combining** (§4.2.3): both ends serialize their slot operations
  through a :class:`~repro.transport.combining.CombiningQueue` instead
  of a lock.
* **Lazy replication of control variables** (§4.2.4): the sender owns
  the original ``tail`` and a replica of ``head``; the receiver owns
  the original ``head`` and a replica of ``tail``.  Replicas are only
  synchronized when a side *appears* full/empty, and a combiner pushes
  its original at the end of each batch — saving a PCIe transaction
  per operation.
* **Adaptive copy** (§4.2.4/§5): load/store ``memcpy`` below the
  initiator-specific threshold (1 KB host / 16 KB Phi), DMA above.
* **Non-blocking interface**: reserve/claim return ``None`` on
  full/empty (the paper's ``EWOULDBLOCK``); ``send``/``recv`` add the
  retry loop.

The ring is unidirectional (``sender_cpu`` → ``receiver_cpu``), like
the paper's RPC ring pairs; data is carried functionally as Python
objects with an accounted byte size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Generator, Optional

from ..hw.cpu import CPU, Core
from ..hw.topology import Fabric
from ..lint.sanitize import SANITIZER
from ..obs.hub import NULL_HUB
from ..sim.engine import Engine, SimError
from .combining import CombiningQueue
from .locks import MCSLock

__all__ = ["RingBuffer", "RingPolicy", "RingStats", "Slot"]

# Slot lifecycle.
_RESERVED = "reserved"
_READY = "ready"
_CONSUMED = "consumed"
_DONE = "done"

# A sentinel op-result distinguishing "no space/data" from a payload.
_WOULD_BLOCK = object()

# Fixed per-op bookkeeping executed by the calling thread (argument
# marshalling, size checks) — branch-divergent queue code.
RB_OP_WORK_UNITS = 110

# Ring bookkeeping executed *by the combiner* for each operation it
# processes (slot accounting, wrap handling).  This is the serial
# section that bounds combining throughput at high core counts;
# calibrated against Figure 8's ~700k pairs/s plateau.  Dequeue does
# more serial work than enqueue (readiness checks, in-order release
# walk), which is also why the paper's Fig. 9 absolute rates differ by
# direction: whichever side dequeues is the slower serial section.
RB_ENQ_COMBINER_UNITS = 45
RB_DEQ_COMBINER_UNITS = 190

# A PCIe memory *write* is posted (fire-and-forget): the initiator only
# pays the issue cost, not a round trip.  Reads stall for the full
# transaction.  §4.2.4's replication matters because the *reads* of the
# remote control variables go away.
POSTED_WRITE_DIVISOR = 6


@dataclass
class RingPolicy:
    """Tunable design choices (each is an ablation in the benches)."""

    lazy_update: bool = True          # §4.2.4 replica scheme vs eager
    combining: bool = True            # §4.2.3 combining vs MCS locking
    copy_mode: str = "adaptive"       # 'memcpy' | 'dma' | 'adaptive'
    combine_max: int = 16
    header_bytes: int = 16            # per-slot on-ring header
    poll_interval_ns: int = 2_000     # retry backoff for send/recv


class RingStats:
    """Operation and PCIe-traffic counters (Figure 9's mechanism)."""

    def __init__(self) -> None:
        self.enqueues = 0
        self.dequeues = 0
        self.would_blocks = 0
        self.pcie_tx = 0
        self.refreshes = 0
        self.dma_copies = 0
        self.memcpy_copies = 0
        self.bytes_transferred = 0


class Slot:
    """One variable-size element in the ring.

    ``trace`` carries the sender's span context across the ring (the
    transport-level trace propagation of ``repro.obs``); ``qspan`` is
    the open queued-residency span, ended when the receiver claims the
    slot.  Both stay None when tracing is off.
    """

    __slots__ = ("seq", "size", "data", "state", "trace", "qspan")

    def __init__(self, seq: int, size: int):
        self.seq = seq
        self.size = size
        self.data: Any = None
        self.state = _RESERVED
        self.trace = None
        self.qspan = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Slot #{self.seq} {self.size}B {self.state}>"


class _Side:
    """Per-role serialization: combining queue or MCS lock."""

    def __init__(
        self, cpu: CPU, policy: RingPolicy, name: str, on_batch_end, obs
    ):
        self.cpu = cpu
        self.combining = policy.combining
        if policy.combining:
            self.queue = CombiningQueue(
                cpu,
                combine_max=policy.combine_max,
                name=name,
                on_batch_end=on_batch_end,
                obs=obs,
            )
        else:
            self.lock = MCSLock(cpu, name=name)
            self._nodes = {}
            self.on_batch_end = on_batch_end

    def execute(self, core: Core, op, ctx=None) -> Generator:
        if self.combining:
            result = yield from self.queue.execute(core, op, ctx=ctx)
            return result
        node = self._nodes.get(core.cid)
        if node is None:
            node = self.lock.new_node()
            self._nodes[core.cid] = node
        yield from self.lock.acquire(core, node)
        try:
            result = yield from op(core)
            # Without combining, control-variable sync happens per-op.
            yield from self.on_batch_end(core)
        finally:
            yield from self.lock.release(core, node)
        return result


class RingBuffer:
    """A fixed-size, variable-element ring buffer over PCIe."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        size_bytes: int,
        master_cpu: CPU,
        sender_cpu: CPU,
        receiver_cpu: CPU,
        policy: Optional[RingPolicy] = None,
        name: str = "rb",
        obs=NULL_HUB,
    ):
        if master_cpu is not sender_cpu and master_cpu is not receiver_cpu:
            raise SimError("master ring must live at the sender or receiver")
        if size_bytes < 1:
            raise SimError("ring size must be positive")
        self.engine = engine
        self.fabric = fabric
        self.capacity = size_bytes
        self.master_cpu = master_cpu
        self.sender_cpu = sender_cpu
        self.receiver_cpu = receiver_cpu
        self.policy = policy or RingPolicy()
        self.name = name
        self.stats = RingStats()
        # Hooks (repro.obs / repro.faults): null objects by default.
        self.faults = obs.faults
        self.tracer = obs.tracer
        metrics = obs.metrics
        self._g_occupancy = metrics.gauge(f"ring.{name}.occupancy_bytes")
        stats = self.stats
        metrics.counter(f"ring.{name}.copy.dma", lambda: stats.dma_copies)
        metrics.counter(
            f"ring.{name}.copy.memcpy", lambda: stats.memcpy_copies
        )

        # Functional truth (mutated only inside side-serialized ops).
        self._seq = 0
        self._enqueued_bytes = 0          # reserved, monotonic
        self._freed_bytes = 0             # done-and-released, monotonic
        self._to_dequeue: Deque[Slot] = deque()
        self._unfreed: Deque[Slot] = deque()

        # Replicated control-variable views (§4.2.4).
        self._sender_freed_view = 0       # sender's replica of head
        self._recv_visible_seq = 0        # receiver's replica of tail

        # Sleep/wake bookkeeping for the blocking send/recv wrappers.
        # (Real Solros threads spin-poll; the simulation wakes sleepers
        # on state changes instead so an idle system quiesces — the
        # timing difference is sub-poll-interval.)
        self._data_waiters: list = []
        self._space_waiters: list = []

        # Role-side cells: the control variables each side touches
        # locally (their contention cost matters for Figure 8).
        self._tail_cell = sender_cpu.new_cell(0, name=f"{name}.tail")
        self._head_cell = receiver_cpu.new_cell(0, name=f"{name}.head")

        self._enq_side = _Side(
            sender_cpu, self.policy, f"{name}.enq", self._push_tail, obs
        )
        self._deq_side = _Side(
            receiver_cpu, self.policy, f"{name}.deq", self._push_head, obs
        )

    def _set_occupancy(self) -> None:
        self._g_occupancy.set(self._enqueued_bytes - self._freed_bytes)

    # ------------------------------------------------------------------
    # Locality helpers
    # ------------------------------------------------------------------
    @property
    def _local_ring(self) -> bool:
        """True when both ends run on the master's processor (Fig. 8)."""
        return self.sender_cpu is self.receiver_cpu

    def _sender_is_master(self) -> bool:
        return self.master_cpu is self.sender_cpu

    def _remote_ctrl_tx(self, core: Core) -> Generator:
        """One control-variable *read* across PCIe (full stall)."""
        if self._local_ring:
            yield core.params.l1_ns
            return
        self.stats.pcie_tx += 1
        # Injected link degradation (retraining/replay) taxes the
        # non-posted read with extra nanoseconds.
        extra = self.faults.pcie_degrade(self.name)
        if extra:
            yield extra
        yield from self.fabric.remote_tx(core, 1)

    def _remote_ctrl_post(self, core: Core) -> Generator:
        """One control-variable *write* across PCIe (posted)."""
        if self._local_ring:
            yield core.params.l1_ns
            return
        self.stats.pcie_tx += 1
        yield core.params.pcie_tx_ns // POSTED_WRITE_DIVISOR

    # ------------------------------------------------------------------
    # Control-variable synchronization (§4.2.4)
    # ------------------------------------------------------------------
    def _push_tail(self, core: Core) -> Generator:
        """Sender-side batch end: publish tail to the receiver replica."""
        self._recv_visible_seq = self._seq
        yield from self._remote_ctrl_post(core)
        self._wake(self._data_waiters)

    def _push_head(self, core: Core) -> Generator:
        """Receiver-side batch end: publish head to the sender replica."""
        self._sender_freed_view = self._freed_bytes
        yield from self._remote_ctrl_post(core)

    def _refresh_head_at_sender(self, core: Core) -> Generator:
        self.stats.refreshes += 1
        if self._local_ring:
            yield from self._head_cell.load(core)
        else:
            yield from self._remote_ctrl_tx(core)
        self._sender_freed_view = self._freed_bytes

    def _refresh_tail_at_receiver(self, core: Core) -> Generator:
        self.stats.refreshes += 1
        if self._local_ring:
            yield from self._tail_cell.load(core)
        else:
            yield from self._remote_ctrl_tx(core)
        self._recv_visible_seq = self._seq

    # ------------------------------------------------------------------
    # Enqueue path (sender side)
    # ------------------------------------------------------------------
    def try_enqueue(self, core: Core, size: int, ctx=None) -> Generator:
        """Reserve a slot for ``size`` bytes; None when the ring is full
        (the paper's EWOULDBLOCK)."""
        if size <= 0:
            raise SimError(f"element size must be positive: {size}")
        if size + self.policy.header_bytes > self.capacity:
            raise SimError(f"element larger than ring: {size}")
        span = None
        if self.tracer.enabled and ctx is not None:
            span = self.tracer.begin(
                "rb.enqueue", "transport", parent=ctx, core=core,
                ring=self.name, size=size,
            )
        yield from core.compute(RB_OP_WORK_UNITS, "branchy")
        # Transient slot stall: the producer loses the slot for a
        # while (SMI / preemption) before the reservation runs.
        stall = self.faults.ring_stall(self.name)
        if stall:
            yield stall
        result = yield from self._enq_side.execute(
            core, lambda c: self._enqueue_op(c, size), ctx=ctx
        )
        if result is _WOULD_BLOCK:
            self.stats.would_blocks += 1
            if span is not None:
                self.tracer.end(span, would_block=True)
            return None
        result.trace = ctx
        self._set_occupancy()
        if span is not None:
            self.tracer.end(span)
        return result

    def _enqueue_op(self, core: Core, size: int) -> Generator:
        yield from core.compute(RB_ENQ_COMBINER_UNITS, "scalar")
        need = size + self.policy.header_bytes
        if not self.policy.lazy_update:
            # Eager (no replication): the control variables live in the
            # master ring's memory, so only the non-master side pays a
            # PCIe transaction per access.
            if self.master_cpu is not self.sender_cpu:
                yield from self._remote_ctrl_tx(core)
            self._sender_freed_view = self._freed_bytes
        if self._enqueued_bytes - self._sender_freed_view + need > self.capacity:
            # Appears full: synchronize the head replica and re-check.
            yield from self._refresh_head_at_sender(core)
            if (
                self._enqueued_bytes - self._sender_freed_view + need
                > self.capacity
            ):
                return _WOULD_BLOCK
        self._seq += 1
        slot = Slot(self._seq, size)
        if SANITIZER.enabled:
            SANITIZER.on_slot_reserve(self, slot.seq)
        yield from self._tail_cell.store(core, self._seq)
        if not self.policy.lazy_update:
            if self.master_cpu is not self.sender_cpu:
                yield from self._remote_ctrl_post(core)
            self._recv_visible_seq = self._seq
        elif self._local_ring:
            self._recv_visible_seq = self._seq
        self._enqueued_bytes += need
        self._to_dequeue.append(slot)
        self.stats.enqueues += 1
        return slot

    def copy_to(self, core: Core, slot: Slot, data: Any) -> Generator:
        """Fill the reserved slot (rb_copy_to_rb_buf)."""
        if slot.state != _RESERVED:
            raise SimError(f"copy_to on {slot.state} slot")
        span = None
        if self.tracer.enabled and slot.trace is not None:
            span = self.tracer.begin(
                "rb.copy_in", "transport", parent=slot.trace, core=core,
                ring=self.name, size=slot.size,
            )
        yield from self._data_copy(core, slot.size, into_ring=True)
        slot.data = data
        if SANITIZER.enabled:
            SANITIZER.on_slot_copy(self, slot.seq)
        if span is not None:
            self.tracer.end(span)

    def set_ready(self, core: Core, slot: Slot) -> Generator:
        """Mark the slot dequeueable (rb_set_ready)."""
        if slot.state != _RESERVED:
            raise SimError(f"set_ready on {slot.state} slot")
        if SANITIZER.enabled:
            SANITIZER.on_slot_phase(self, slot.seq, "ready")
        yield from self._slot_header_write(core, writer_is_sender=True)
        slot.state = _READY
        if self.tracer.enabled and slot.trace is not None:
            # Queued-residency span: open now, ended when the receiver
            # claims the slot in try_dequeue.
            slot.qspan = self.tracer.begin(
                "rb.queued", "transport", parent=slot.trace, core=core,
                ring=self.name, size=slot.size,
            )
        self._wake(self._data_waiters)

    # ------------------------------------------------------------------
    # Dequeue path (receiver side)
    # ------------------------------------------------------------------
    def try_dequeue(self, core: Core) -> Generator:
        """Claim the oldest ready slot; None when empty."""
        yield from core.compute(RB_OP_WORK_UNITS, "branchy")
        # Consumer-side counterpart of the enqueue stall.
        stall = self.faults.ring_stall(self.name)
        if stall:
            yield stall
        result = yield from self._deq_side.execute(core, self._dequeue_op)
        if result is _WOULD_BLOCK:
            self.stats.would_blocks += 1
            return None
        if result.qspan is not None:
            self.tracer.end(result.qspan, claimed_by=f"c{core.cid}")
            result.qspan = None
        return result

    def _dequeue_op(self, core: Core) -> Generator:
        yield from core.compute(RB_DEQ_COMBINER_UNITS, "scalar")
        if not self.policy.lazy_update:
            if self.master_cpu is not self.receiver_cpu:
                yield from self._remote_ctrl_tx(core)
            self._recv_visible_seq = self._seq
        if not self._head_ready():
            yield from self._refresh_tail_at_receiver(core)
            if not self._head_ready():
                return _WOULD_BLOCK
        slot = self._to_dequeue.popleft()
        if SANITIZER.enabled:
            SANITIZER.on_slot_phase(self, slot.seq, "consumed")
        slot.state = _CONSUMED
        self._unfreed.append(slot)
        yield from self._head_cell.store(core, slot.seq)
        if not self.policy.lazy_update:
            if self.master_cpu is not self.receiver_cpu:
                yield from self._remote_ctrl_post(core)
            self._sender_freed_view = self._freed_bytes
        self.stats.dequeues += 1
        return slot

    def _head_ready(self) -> bool:
        if not self._to_dequeue:
            return False
        slot = self._to_dequeue[0]
        return slot.state == _READY and slot.seq <= self._recv_visible_seq

    def copy_from(self, core: Core, slot: Slot) -> Generator:
        """Copy the payload out (rb_copy_from_rb_buf); returns it."""
        if slot.state != _CONSUMED:
            raise SimError(f"copy_from on {slot.state} slot")
        span = None
        if self.tracer.enabled and slot.trace is not None:
            span = self.tracer.begin(
                "rb.copy_out", "transport", parent=slot.trace, core=core,
                ring=self.name, size=slot.size,
            )
        yield from self._data_copy(core, slot.size, into_ring=False)
        if span is not None:
            self.tracer.end(span)
        return slot.data

    def set_done(self, core: Core, slot: Slot) -> Generator:
        """Release the slot's space (rb_set_done)."""
        if slot.state != _CONSUMED:
            raise SimError(f"set_done on {slot.state} slot")
        if SANITIZER.enabled:
            SANITIZER.on_slot_phase(self, slot.seq, "done")
        yield from self._slot_header_write(core, writer_is_sender=False)
        slot.state = _DONE
        # Space is reclaimed in ring order.
        freed_any = False
        while self._unfreed and self._unfreed[0].state == _DONE:
            done = self._unfreed.popleft()
            self._freed_bytes += done.size + self.policy.header_bytes
            freed_any = True
            if self._local_ring:
                self._sender_freed_view = self._freed_bytes
        if freed_any:
            self._set_occupancy()
            self._wake(self._space_waiters)

    # ------------------------------------------------------------------
    # Blocking conveniences
    # ------------------------------------------------------------------
    def send(self, core: Core, data: Any, size: int, ctx=None) -> Generator:
        """Enqueue + copy + ready, waiting while the ring is full."""
        while True:
            slot = yield from self.try_enqueue(core, size, ctx=ctx)
            if slot is not None:
                break
            yield from self._wait_for_space(size)
        yield from self.copy_to(core, slot, data)
        yield from self.set_ready(core, slot)
        return slot

    def dequeue_blocking(self, core: Core) -> Generator:
        """Claim the next slot, waiting while the ring is empty.

        The caller is responsible for ``copy_from`` + ``set_done`` —
        this is the §4.4.2 event-dispatcher pattern, where a single
        thread claims slots and application threads copy in parallel.
        """
        while True:
            slot = yield from self.try_dequeue(core)
            if slot is not None:
                return slot
            yield from self._wait_for_data()

    def recv(self, core: Core) -> Generator:
        """Dequeue + copy + done, waiting while the ring is empty;
        returns the payload."""
        slot = yield from self.dequeue_blocking(core)
        data = yield from self.copy_from(core, slot)
        yield from self.set_done(core, slot)
        return data

    def _wait_for_data(self) -> Generator:
        ev = self.engine.event()
        self._data_waiters.append(ev)
        # Re-check after registering: a producer may have raced us.
        if self._head_ready():
            self._wake(self._data_waiters)
        yield ev
        yield self.policy.poll_interval_ns  # poll granularity

    def _wait_for_space(self, size: int) -> Generator:
        ev = self.engine.event()
        self._space_waiters.append(ev)
        used = self._enqueued_bytes - self._freed_bytes
        if used + size + self.policy.header_bytes <= self.capacity:
            self._wake(self._space_waiters)
        yield ev
        yield self.policy.poll_interval_ns

    def _wake(self, waiters: list) -> None:
        pending, waiters[:] = waiters[:], []
        for ev in pending:
            if not ev.triggered:
                ev.succeed()

    # ------------------------------------------------------------------
    # Data movement
    # ------------------------------------------------------------------
    def _data_copy(self, core: Core, size: int, into_ring: bool) -> Generator:
        self.stats.bytes_transferred += size
        side_cpu = self.sender_cpu if into_ring else self.receiver_cpu
        if self.master_cpu is side_cpu:
            # Ring memory is local to this side.
            yield from core.memcpy_local(size)
            return
        mode = self.policy.copy_mode
        if mode == "adaptive":
            mode = (
                "memcpy"
                if size < core.params.adaptive_copy_threshold
                else "dma"
            )
        if mode == "memcpy":
            self.stats.memcpy_copies += 1
            yield from self.fabric.loadstore_copy(core, size)
        elif mode == "dma":
            self.stats.dma_copies += 1
            if into_ring:
                src, dst = side_cpu.node, self.master_cpu.node
            else:
                src, dst = self.master_cpu.node, side_cpu.node
            yield from self.fabric.dma_copy(core, src, dst, size)
        else:
            raise SimError(f"unknown copy mode: {mode!r}")

    def _slot_header_write(self, core: Core, writer_is_sender: bool) -> Generator:
        side_cpu = self.sender_cpu if writer_is_sender else self.receiver_cpu
        if self.master_cpu is side_cpu:
            yield core.params.l1_ns
        else:
            self.stats.pcie_tx += 1
            yield core.params.pcie_tx_ns // POSTED_WRITE_DIVISOR
