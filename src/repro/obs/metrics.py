"""Metrics registry sampled on the simulated clock.

Four metric types, all timestamped with ``engine.now``:

* :class:`Counter` — monotonically increasing totals (cache hits,
  DMA-vs-memcpy decisions, injected faults).  A counter is *pulled*:
  it holds a zero-argument callable that reads the owning component's
  stats field at snapshot time, so each count has one source.
* :class:`Gauge` — point-in-time values with a bounded time series
  (ring occupancy, RPC in-flight depth).  Samples are recorded on
  *change*, not by a polling process: a recurring sampler would keep
  the event heap non-empty forever, and an event-driven series captures
  exactly the instants at which the value could have changed anyway.
* :class:`HistogramMetric` — log2-bucketed distributions
  (:class:`repro.sim.stats.Histogram` underneath; combining batch
  sizes, span latencies).
* :class:`RateMeter` — byte/op rates over intervals, reusing
  :class:`repro.sim.stats.ThroughputMeter` so the rate math lives in
  one place.

All metrics are created lazily by name through
:class:`MetricsRegistry`; instrumented components create theirs once,
at construction, so the hot path pays one method call for a pushed
metric and nothing for a counter.  A system with
observability off hands its components :data:`NULL_METRICS` instead,
whose instruments accept every call and record nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim.stats import Histogram, ThroughputMeter

__all__ = [
    "Counter",
    "Gauge",
    "HistogramMetric",
    "RateMeter",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]


class Counter:
    """A monotonically increasing total, read from its owner on demand.

    ``read`` returns the current total, typically a field of the
    component's stats object; stats objects never reset, so the value
    never decreases.
    """

    __slots__ = ("name", "read")

    def __init__(self, name: str, read: Callable[[], int]):
        self.name = name
        self.read = read

    @property
    def value(self) -> int:
        return self.read()

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value with a bounded ``(sim_ns, value)`` series."""

    __slots__ = ("name", "engine", "value", "min", "max", "samples", "sets")

    def __init__(self, name: str, engine, max_samples: int):
        self.name = name
        self.engine = engine
        self.value: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sets = 0
        self.samples: Deque[Tuple[int, float]] = deque(maxlen=max_samples)

    def set(self, value: float) -> None:
        self.value = value
        self.sets += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.samples.append((self.engine.now, value))

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def series(self) -> List[Tuple[int, float]]:
        return list(self.samples)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "sets": self.sets,
        }


class HistogramMetric:
    """A named log2 histogram."""

    __slots__ = ("name", "hist")

    def __init__(self, name: str):
        self.name = name
        self.hist = Histogram()

    def record(self, value: float) -> None:
        self.hist.record(value)

    @property
    def count(self) -> int:
        return self.hist.count

    @property
    def mean(self) -> float:
        return self.hist.mean

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.hist.count,
            "mean": self.hist.mean,
            "buckets": [list(row) for row in self.hist.buckets()],
        }


class RateMeter:
    """Byte/op totals with interval rates (wraps ThroughputMeter)."""

    __slots__ = ("name", "engine", "meter", "intervals")

    def __init__(self, name: str, engine, max_samples: int):
        self.name = name
        self.engine = engine
        self.meter = ThroughputMeter()
        self.intervals: Deque[Tuple[int, Dict[str, float]]] = deque(
            maxlen=max_samples
        )

    def add(self, nbytes: int = 0, nops: int = 1) -> None:
        self.meter.add(nbytes, nops)

    def tick(self) -> Dict[str, float]:
        """Close the current interval at ``engine.now`` and record it."""
        rates = self.meter.interval(self.engine.now)
        self.intervals.append((self.engine.now, rates))
        return rates

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "meter",
            "bytes": self.meter.bytes,
            "ops": self.meter.ops,
            "intervals": len(self.intervals),
        }


class MetricsRegistry:
    """Name-keyed metric store for one simulation engine."""

    def __init__(self, engine, max_samples: int = 4096):
        self.engine = engine
        self.max_samples = max_samples
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, kind, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, read: Callable[[], int]) -> Counter:
        """The counter ``name``; a new one reads its value from ``read``.

        A counter has one owner: asking again for an existing name
        returns it unchanged, still reading its first ``read``.
        """
        return self._get(name, Counter, lambda: Counter(name, read))

    def gauge(self, name: str) -> Gauge:
        return self._get(
            name, Gauge, lambda: Gauge(name, self.engine, self.max_samples)
        )

    def histogram(self, name: str) -> HistogramMetric:
        return self._get(name, HistogramMetric, lambda: HistogramMetric(name))

    def meter(self, name: str) -> RateMeter:
        return self._get(
            name, RateMeter, lambda: RateMeter(name, self.engine, self.max_samples)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A flat, JSON-ready view of every metric."""
        return {
            name: self._metrics[name].to_dict()
            for name in sorted(self._metrics)
        }

    def reset(self) -> None:
        self._metrics.clear()


class _NullInstrument:
    """Stands in for every metric type when observability is off.
    Fixed signatures (no ``*args``) keep the disabled call cheap."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float = 0, nops: int = 1) -> None:
        pass

    def record(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The registry of a disabled hub: hands out one shared do-nothing
    instrument for every name and registers nothing."""

    def counter(self, name: str, read: Callable[[], int]) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    histogram = meter = gauge


NULL_METRICS = NullMetrics()
