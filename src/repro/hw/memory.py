"""Cache-coherent shared-memory cost model.

The Figure 8 experiment contrasts three concurrent queue designs
(ticket-lock two-lock queue, MCS-lock two-lock queue, and the Solros
combining ring buffer) on a 61-core Xeon Phi.  Their relative behaviour
is entirely a story about *cache-line movement*:

* a ticket lock makes every waiter spin on one line, so each release
  triggers an invalidation broadcast and O(waiters) serialized line
  re-fetches;
* an MCS lock hands off through a per-waiter line — O(1) transfers;
* combining batches K operations behind a single atomic swap, keeping
  the queue's head/tail lines resident in the combiner's cache.

:class:`MemCell` models one cache line holding one Python value.  Reads
and writes by simulated cores are charged the MESI-style costs from
:class:`~repro.hw.params.CpuParams`; remote transfers serialize through
a per-line bus resource, which is what makes broadcast spinning
collapse at high core counts.  Values themselves are exchanged
functionally (real algorithm, simulated time).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..lint.sanitize import SANITIZER
from ..sim.engine import Engine, Event
from ..sim.resources import Resource
from .params import CpuParams

__all__ = ["MemCell", "CoherenceStats"]


class CoherenceStats:
    """Aggregate counters over a set of cells (shared across a CPU)."""

    def __init__(self) -> None:
        self.local_hits = 0
        self.line_transfers = 0
        self.atomics = 0
        self.wakeups = 0


class MemCell:
    """One cache line holding one Python value.

    All operations are generators, to be driven with ``yield from`` by
    the calling simulation process; the calling core identity is passed
    explicitly (any hashable — usually a :class:`repro.hw.cpu.Core`).
    """

    __slots__ = (
        "engine",
        "params",
        "name",
        "stats",
        "_value",
        "_owner",
        "_sharers",
        "_bus",
        "_watchers",
    )

    def __init__(
        self,
        engine: Engine,
        params: CpuParams,
        value: Any = None,
        name: str = "",
        stats: Optional[CoherenceStats] = None,
    ):
        self.engine = engine
        self.params = params
        self.name = name
        self.stats = stats or CoherenceStats()
        self._value = value
        self._owner: Any = None
        self._sharers: set = set()
        # Remote line transfers for this line serialize here: this is
        # the coherence-directory/home-node bottleneck that makes
        # broadcast spinning O(waiters) per handoff.
        self._bus = Resource(engine, capacity=1, name=f"line:{name}")
        self._watchers: List[Event] = []

    # ------------------------------------------------------------------
    # Introspection (zero-cost; for assertions and tests only)
    # ------------------------------------------------------------------
    def peek(self) -> Any:
        """Read the value without charging simulated time."""
        return self._value

    # ------------------------------------------------------------------
    # Timed operations
    # ------------------------------------------------------------------
    def load(self, core: Any) -> Generator:
        """Read the value; returns it.

        A read snoop occupies the line's directory only for
        ``line_share_ns`` (concurrent readers pipeline), although the
        requester experiences the full ``line_transfer_ns`` latency.
        Exclusive (write/atomic) ownership changes occupy the directory
        for the full transfer — that asymmetry is why a ticket lock's
        broadcast wakeups degrade more gently than full serialization
        but still collapse relative to MCS handoff.
        """
        if core is self._owner or core in self._sharers:
            self.stats.local_hits += 1
            yield self.params.l1_ns
        else:
            self.stats.line_transfers += 1
            yield from self._bus.using(self.params.line_share_ns)
            yield self.params.line_transfer_ns - self.params.line_share_ns
            self._sharers.add(core)
        return self._value

    def store(self, core: Any, value: Any) -> Generator:
        """Write the value, invalidating other caches."""
        yield from self._charge_exclusive(core)
        self._value = value
        self._wake_watchers()

    def swap(self, core: Any, value: Any) -> Generator:
        """Atomic exchange; returns the previous value (§4.2: one of the
        two atomic instructions Solros requires of a co-processor)."""
        yield from self._charge_exclusive(core, atomic=True)
        old, self._value = self._value, value
        self._wake_watchers()
        return old

    def compare_and_swap(self, core: Any, expected: Any, value: Any) -> Generator:
        """Atomic CAS; returns True on success (the other required
        atomic instruction)."""
        yield from self._charge_exclusive(core, atomic=True)
        if self._value == expected:
            self._value = value
            self._wake_watchers()
            return True
        return False

    def fetch_and_add(self, core: Any, delta: int) -> Generator:
        """Atomic fetch-and-add; returns the previous value.

        (Emulatable with a compare_and_swap loop, as the paper notes for
        atomic_swap; provided directly for the ticket lock.)
        """
        yield from self._charge_exclusive(core, atomic=True)
        old = self._value
        self._value = old + delta
        self._wake_watchers()
        return old

    def wait_until(self, core: Any, predicate: Callable[[Any], bool]) -> Generator:
        """Spin until ``predicate(value)`` holds; returns the value.

        Models spin-waiting without wasting simulation events: the core
        re-reads the line (paying a transfer — it was just invalidated
        by the writer) each time the line changes.  With N spinners on
        one line, every write wakes all N and their re-reads serialize
        through the line bus: the O(waiters) broadcast cost.
        """
        if SANITIZER.enabled:
            SANITIZER.on_wait(core, self)
        while True:
            value = yield from self.load(core)
            if predicate(value):
                return value
            ev = self.engine.event()
            self._watchers.append(ev)
            yield ev
            # Writer invalidated us; drop sharer status so the next
            # load pays a transfer.
            self._sharers.discard(core)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _charge_exclusive(self, core: Any, atomic: bool = False) -> Generator:
        """Charge the cost of gaining exclusive (M-state) ownership."""
        cost = 0
        if self._owner is core and not (self._sharers - {core}):
            self.stats.local_hits += 1
            cost += self.params.l1_ns
        else:
            self.stats.line_transfers += 1
            cost += self.params.line_transfer_ns
        if atomic:
            self.stats.atomics += 1
            cost += self.params.atomic_extra_ns
        if self._owner is core and not (self._sharers - {core}) and not atomic:
            # Pure local write: no bus serialization.
            yield cost
        else:
            yield from self._bus.using(cost)
        self._owner = core
        self._sharers = {core}

    def _wake_watchers(self) -> None:
        if not self._watchers:
            return
        watchers, self._watchers = self._watchers, []
        self.stats.wakeups += len(watchers)
        for ev in watchers:
            ev.succeed()
