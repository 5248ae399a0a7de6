"""Statistics helpers for benchmarks: percentiles, CDFs, throughput.

Kept dependency-light (plain Python + optional numpy acceleration is
deliberately avoided so results are identical across numpy versions).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "percentile",
    "summarize",
    "cdf_points",
    "Histogram",
    "ThroughputMeter",
    "mean",
]


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    if not samples:
        return 0.0
    return sum(samples) / len(samples)


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation.

    The input need not be sorted.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[int(rank)])
    frac = rank - lo
    # lo + frac*(hi-lo) rather than the two-product form: when both
    # bracket values are (nearly) equal the latter can round a hair
    # *outside* the bracket, breaking percentile monotonicity.
    value = ordered[lo] + frac * (ordered[hi] - ordered[lo])
    return min(max(value, ordered[lo]), ordered[hi])


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Summary statistics: count/min/mean/p50/p95/p99/max."""
    if not samples:
        return {
            "count": 0,
            "min": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
            "max": 0.0,
        }
    return {
        "count": len(samples),
        "min": float(min(samples)),
        "mean": mean(samples),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
        "max": float(max(samples)),
    }


def cdf_points(
    samples: Sequence[float], npoints: int = 50
) -> List[Tuple[float, float]]:
    """Empirical CDF as ``(value, cumulative_percent)`` pairs.

    Used for the Figure 1(b)-style latency CDF plots.  The last point is
    always ``(max, 100.0)``, also when the samples end in ties.
    """
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    points: List[Tuple[float, float]] = []
    step = max(1, n // npoints)
    for i in range(0, n, step):
        points.append((float(ordered[i]), 100.0 * (i + 1) / n))
    last = (float(ordered[-1]), 100.0)
    if points[-1][0] == last[0]:
        points[-1] = last
    else:
        points.append(last)
    return points


class Histogram:
    """Log2-bucketed histogram for latencies spanning orders of magnitude.

    Values in ``[0, 1)`` get their own sub-unit bucket, reported as the
    ``(0, 1)`` range; values ``>= 1`` land in ``[2**k, 2**(k+1))``.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError("histogram values must be >= 0")
        bucket = -1 if value < 1 else int(math.log2(value))
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self._count += 1
        self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        """Sum of all recorded values."""
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def buckets(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(low, high, count)`` rows (low/high in value units).

        The sub-unit bucket reports ``(0, 1)`` — it holds every value
        in ``[0, 1)``, not the ``[1, 2)`` range of bucket 0.
        """
        rows = []
        for bucket in sorted(self._buckets):
            if bucket < 0:
                low, high = 0, 1
            else:
                low, high = 2**bucket, 2 ** (bucket + 1)
            rows.append((low, high, self._buckets[bucket]))
        return rows

    def reset(self) -> None:
        self._buckets.clear()
        self._count = 0
        self._sum = 0.0


class ThroughputMeter:
    """Accumulates byte/op counts and converts to rates.

    Benchmarks call :meth:`add` during the run and :meth:`gbps` /
    :meth:`ops_per_sec` at the end with the elapsed simulated time.

    For periodic gauges (the ``repro.obs`` metrics layer), the meter
    also supports *interval* rates: :meth:`interval` reports the rate
    since the previous mark and advances the mark, so one meter serves
    both cumulative and per-interval reporting without duplicated math.
    """

    def __init__(self) -> None:
        self.bytes = 0
        self.ops = 0
        self._mark_ns = 0
        self._mark_bytes = 0
        self._mark_ops = 0

    def add(self, nbytes: int = 0, nops: int = 1) -> None:
        self.bytes += nbytes
        self.ops += nops

    def reset(self) -> None:
        """Clear totals and the interval mark."""
        self.bytes = 0
        self.ops = 0
        self._mark_ns = 0
        self._mark_bytes = 0
        self._mark_ops = 0

    def interval(self, now_ns: int) -> Dict[str, float]:
        """Rates over ``[last mark, now_ns]``; advances the mark.

        Returns ``{"bytes", "ops", "gb_per_sec", "ops_per_sec"}`` for
        the interval.  A zero-length interval reports zero rates.
        """
        if now_ns < self._mark_ns:
            raise ValueError(
                f"interval mark moved backwards: {now_ns} < {self._mark_ns}"
            )
        dt = now_ns - self._mark_ns
        dbytes = self.bytes - self._mark_bytes
        dops = self.ops - self._mark_ops
        self._mark_ns = now_ns
        self._mark_bytes = self.bytes
        self._mark_ops = self.ops
        return {
            "bytes": float(dbytes),
            "ops": float(dops),
            "gb_per_sec": dbytes / dt if dt > 0 else 0.0,
            "ops_per_sec": dops * 1e9 / dt if dt > 0 else 0.0,
        }

    def gb_per_sec(self, elapsed_ns: int) -> float:
        """Throughput in GB/s (decimal GB, matching the paper's axes)."""
        if elapsed_ns <= 0:
            return 0.0
        return self.bytes / elapsed_ns  # bytes/ns == GB/s

    def mb_per_sec(self, elapsed_ns: int) -> float:
        return self.gb_per_sec(elapsed_ns) * 1000.0

    def ops_per_sec(self, elapsed_ns: int) -> float:
        if elapsed_ns <= 0:
            return 0.0
        return self.ops * 1e9 / elapsed_ns
