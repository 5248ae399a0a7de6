"""The perf-gate micro-benchmark suite and its result schema.

Every benchmark here reuses the figure runners in
:mod:`repro.bench.figures` with small, fixed parameter sets: each
builds a fresh :class:`~repro.sim.engine.Engine` (full isolation),
seeds every RNG, and reads elapsed time off the virtual clock — so
two runs of the suite produce byte-identical results on any machine,
and a changed number always means a changed *algorithm or cost
model*, never a noisy runner.

A benchmark produces one or more named metrics; each metric carries
its units, its good direction (``higher``/``lower``), and a tolerance
in percent.  The tolerance is not for measurement noise (there is
none): it is the band of *intended-neutral* drift — e.g. an extra
bookkeeping instruction charged on the hot path — that may move a
number without meaning a real regression.  ``compare`` (see
:mod:`repro.bench.perfgate.compare`) enforces the band per metric.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ...sim.stats import percentile
from ..figures import (
    controlplane_scheduled_read,
    fs_random_io,
    ringbuf_copy_bandwidth,
    ringbuf_local_pairs_per_sec,
    ringbuf_pcie_ops_per_sec,
    tcp_echo_samples,
)

__all__ = [
    "SCHEMA",
    "SUITE",
    "SUITE_SEED",
    "BASELINE_NAME",
    "MetricSpec",
    "Benchmark",
    "run_suite",
    "to_json",
    "write_results",
    "load_results",
    "export_to_obs",
    "repo_root",
    "baseline_path",
]

SCHEMA = "repro.bench.perfgate/v1"
SUITE_SEED = 1
BASELINE_NAME = "BENCH_baseline.json"

KB = 1024
MB = 1024 * 1024


class MetricSpec:
    """One gated number: units, good direction, drift tolerance."""

    __slots__ = ("name", "units", "direction", "tolerance_pct")

    def __init__(self, name: str, units: str, direction: str, tolerance_pct: float):
        if direction not in ("higher", "lower"):
            raise ValueError(f"direction must be higher|lower: {direction!r}")
        self.name = name
        self.units = units
        self.direction = direction
        self.tolerance_pct = tolerance_pct

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MetricSpec {self.name} [{self.units}] {self.direction}>"


class Benchmark:
    """One suite entry: a runner returning ``{metric_name: value}``."""

    __slots__ = ("bid", "title", "metrics", "_run")

    def __init__(
        self,
        bid: str,
        title: str,
        metrics: Sequence[MetricSpec],
        run: Callable[[], Dict[str, float]],
    ):
        self.bid = bid
        self.title = title
        self.metrics = tuple(metrics)
        self._run = run

    def run(self) -> Dict[str, float]:
        values = self._run()
        missing = [s.name for s in self.metrics if s.name not in values]
        if missing:
            raise RuntimeError(f"benchmark {self.bid} omitted metrics {missing}")
        return values


# ----------------------------------------------------------------------
# The suite.  Parameters are deliberately small: the whole thing runs
# in a few seconds of wall time, so it can gate every push.
# ----------------------------------------------------------------------
def _run_ringbuf_local() -> Dict[str, float]:
    """Flat-combining enqueue/dequeue on a Phi-local ring (Fig. 8)."""
    return {
        "ringbuf.local.pairs_per_sec": ringbuf_local_pairs_per_sec(
            "solros", 16, iters=40
        ),
    }


def _run_ringbuf_pcie() -> Dict[str, float]:
    """Cross-PCIe ring ops with lazy vs eager control variables
    (§4.2.4, Fig. 9) — guards the replication scheme both ways."""
    return {
        "ringbuf.pcie.lazy.ops_per_sec": ringbuf_pcie_ops_per_sec(
            "phi2host", True, 8, iters=30
        ),
        "ringbuf.pcie.eager.ops_per_sec": ringbuf_pcie_ops_per_sec(
            "phi2host", False, 8, iters=30
        ),
    }


def _run_adaptive_copy() -> Dict[str, float]:
    """The adaptive memcpy/DMA policy at both ends of its range
    (§4.2.4, Fig. 10): 256 B exercises the load/store side, 256 KB the
    DMA side."""
    return {
        "ringbuf.copy.small.gbps": ringbuf_copy_bandwidth(
            "phi2host", "adaptive", 256, n_threads=4, total_bytes=1 * MB
        ),
        "ringbuf.copy.large.gbps": ringbuf_copy_bandwidth(
            "phi2host", "adaptive", 256 * KB, n_threads=4, total_bytes=16 * MB
        ),
    }


def _run_fs_read_p2p() -> Dict[str, float]:
    """Delegated 512 KB random reads on the NUMA-local P2P path.

    Also gates the engine callbacks each read costs: a deterministic
    stand-in for the simulator's host time on this path."""
    counters: Dict[str, int] = {}
    gbps = fs_random_io(
        "solros", 512 * KB, 4, total_mb=16, seed=SUITE_SEED, counters=counters
    )
    return {
        "fs.read.p2p.gbps": gbps,
        "fs.read.p2p.events_per_op": counters["events"] / counters["ops"],
    }


def _run_fs_read_buffered() -> Dict[str, float]:
    """The same reads with the Phi across the NUMA boundary, where the
    policy engine picks the host-buffered path (and its engine cost,
    as for the P2P path)."""
    counters: Dict[str, int] = {}
    gbps = fs_random_io(
        "solros-xnuma", 512 * KB, 4, total_mb=16, seed=SUITE_SEED,
        counters=counters,
    )
    return {
        "fs.read.buffered.gbps": gbps,
        "fs.read.buffered.events_per_op": counters["events"] / counters["ops"],
    }


def _run_faults_off() -> Dict[str, float]:
    """The P2P read bench with an *empty* FaultPlan attached: every
    injection hook is reached but draws nothing, so the number must
    match ``fs.read.p2p.gbps`` exactly.  Guards "faults off costs
    nothing" as a gated metric, not just a test assertion."""
    from ...faults import FaultPlan

    return {
        "faults.off.read.gbps": fs_random_io(
            "solros", 512 * KB, 4, total_mb=16, seed=SUITE_SEED,
            overrides={"fault_plan": FaultPlan()},
        ),
    }


def _run_tcp_rtt() -> Dict[str, float]:
    """64 B echo RTT through the Solros network service (Fig. 1b),
    and the engine events each echo costs."""
    counters: Dict[str, int] = {}
    samples = tcp_echo_samples(
        "solros", n_messages=80, msg_size=64, counters=counters
    )
    return {
        "net.tcp.rtt.p50_us": percentile(samples, 50) / 1000.0,
        "net.tcp.rtt.p99_us": percentile(samples, 99) / 1000.0,
        "net.tcp.events_per_op": counters["events"] / counters["ops"],
    }


def _run_sched_dispatch() -> Dict[str, float]:
    """Delegated reads routed through the drr+priority control-plane
    scheduler: dispatch overhead shows up in the p50."""
    result = controlplane_scheduled_read(
        2, "drr+priority", threads_per_phi=4, ops_per_thread=6
    )
    return {
        "sched.read.p50_us": result["p50_us"],
        "sched.read.gbps": result["gbps"],
    }


SUITE: List[Benchmark] = [
    Benchmark(
        "ringbuf_local",
        "local ring: combining enqueue/dequeue pairs",
        [MetricSpec("ringbuf.local.pairs_per_sec", "pairs/s", "higher", 2.0)],
        _run_ringbuf_local,
    ),
    Benchmark(
        "ringbuf_pcie",
        "PCIe ring: lazy vs eager control variables",
        [
            MetricSpec("ringbuf.pcie.lazy.ops_per_sec", "ops/s", "higher", 2.0),
            MetricSpec("ringbuf.pcie.eager.ops_per_sec", "ops/s", "higher", 2.0),
        ],
        _run_ringbuf_pcie,
    ),
    Benchmark(
        "adaptive_copy",
        "adaptive copy engine: memcpy and DMA regimes",
        [
            MetricSpec("ringbuf.copy.small.gbps", "GB/s", "higher", 2.0),
            MetricSpec("ringbuf.copy.large.gbps", "GB/s", "higher", 2.0),
        ],
        _run_adaptive_copy,
    ),
    Benchmark(
        "fs_read_p2p",
        "fs data path: delegated reads, P2P mode",
        [
            MetricSpec("fs.read.p2p.gbps", "GB/s", "higher", 2.0),
            MetricSpec("fs.read.p2p.events_per_op", "events/op", "lower", 0.0),
        ],
        _run_fs_read_p2p,
    ),
    Benchmark(
        "fs_read_buffered",
        "fs data path: delegated reads, buffered mode",
        [
            MetricSpec("fs.read.buffered.gbps", "GB/s", "higher", 2.0),
            MetricSpec(
                "fs.read.buffered.events_per_op", "events/op", "lower", 0.0
            ),
        ],
        _run_fs_read_buffered,
    ),
    Benchmark(
        "faults_off",
        "fault injection disarmed: hooks must cost nothing",
        [MetricSpec("faults.off.read.gbps", "GB/s", "higher", 0.5)],
        _run_faults_off,
    ),
    Benchmark(
        "tcp_rtt",
        "network service: 64 B echo round trip",
        [
            MetricSpec("net.tcp.rtt.p50_us", "us", "lower", 2.0),
            MetricSpec("net.tcp.rtt.p99_us", "us", "lower", 5.0),
            MetricSpec("net.tcp.events_per_op", "events/op", "lower", 0.0),
        ],
        _run_tcp_rtt,
    ),
    Benchmark(
        "sched_dispatch",
        "control-plane scheduler: drr+priority dispatch",
        [
            MetricSpec("sched.read.p50_us", "us", "lower", 3.0),
            MetricSpec("sched.read.gbps", "GB/s", "higher", 3.0),
        ],
        _run_sched_dispatch,
    ),
]


def suite_by_id() -> Dict[str, Benchmark]:
    return {b.bid: b for b in SUITE}


def select(only: Optional[Iterable[str]] = None) -> List[Benchmark]:
    if only is None:
        return list(SUITE)
    table = suite_by_id()
    unknown = [bid for bid in only if bid not in table]
    if unknown:
        raise KeyError(f"unknown perfgate benchmark(s): {unknown}")
    return [table[bid] for bid in only]


# ----------------------------------------------------------------------
# Running + result files
# ----------------------------------------------------------------------
def run_suite(only: Optional[Iterable[str]] = None) -> Dict:
    """Run (a subset of) the suite; returns the schema-v1 result doc.

    A crashing benchmark is recorded under ``errors`` and the run
    continues — partial results are always produced, and ``compare``
    then reports the crashed benchmark's metrics as missing.
    """
    benches = select(only)
    metrics: Dict[str, Dict] = {}
    errors: Dict[str, str] = {}
    for bench in benches:
        try:
            values = bench.run()
        except Exception as error:  # crashing bench -> partial results
            errors[bench.bid] = repr(error)
            continue
        for spec in bench.metrics:
            metrics[spec.name] = {
                "value": values[spec.name],
                "units": spec.units,
                "direction": spec.direction,
                "tolerance_pct": spec.tolerance_pct,
                "bench": bench.bid,
            }
    return {
        "schema": SCHEMA,
        "suite": [b.bid for b in benches],
        "seed": SUITE_SEED,
        "environment": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "clock": "simulated",
        },
        "errors": errors,
        "metrics": metrics,
    }


def to_json(doc: Dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, one
    trailing newline — byte-identical across runs by construction."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_results(path, doc: Dict) -> Path:
    path = Path(path)
    path.write_text(to_json(doc))
    return path


def load_results(path) -> Dict:
    return json.loads(Path(path).read_text())


def repo_root() -> Path:
    """The repository root (four levels above this package)."""
    return Path(__file__).resolve().parents[4]


def baseline_path(root: Optional[Path] = None) -> Path:
    return (root or repo_root()) / BASELINE_NAME


# ----------------------------------------------------------------------
# repro.obs integration
# ----------------------------------------------------------------------
def export_to_obs(doc: Dict, capture=None):
    """Mirror the suite's numbers into a repro.obs metrics registry.

    Every metric becomes a ``perfgate.<metric>`` gauge; crashed
    benchmarks are counted by a ``perfgate.errors`` counter.  When a
    :class:`~repro.obs.hub.Capture` is active (``--metrics-out``),
    the registry is registered with it, so perf numbers and traces
    land in the same exported JSON.  Returns the registry.
    """
    from ...obs import MetricsRegistry, active_capture
    from ...sim.engine import Engine

    capture = capture if capture is not None else active_capture()
    engine = Engine()  # gauges timestamp with engine.now (t=0 here)
    if capture is not None:
        registry = capture.new_hub(engine, "perfgate").metrics
    else:
        registry = MetricsRegistry(engine)
    for name in sorted(doc.get("metrics", {})):
        value = doc["metrics"][name]["value"]
        registry.gauge(f"perfgate.{name}").set(value)
    errors = doc.get("errors", {})
    if errors:
        registry.counter("perfgate.errors", lambda: len(errors))
    return registry
