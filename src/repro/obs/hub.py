"""The per-simulation hook bundle and the global capture hook.

:class:`ObservabilityHub` carries the three cross-cutting hooks of one
simulated machine: a :class:`~repro.obs.tracer.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and the fault injector.
Every instrumented component receives the hub once, at construction,
from its owner, and keeps the hooks it needs.  A disabled hub carries
null objects (the shared :data:`NULL_TRACER` and :data:`NULL_METRICS`),
and a hub built without a fault plan carries :data:`NULL_FAULTS`, so
components never test whether a hook is there.  Standalone
constructions default to :data:`NULL_HUB`.

*Capture* is how ``python -m repro.bench --trace-out`` reaches the
systems the benchmark runners build internally: each runner creates a
fresh :class:`~repro.sim.engine.Engine` (full isolation), so there is
no single object the CLI could hand a tracer to.  Instead the CLI
enables a process-global capture; every :class:`SolrosSystem`
constructed while it is active creates an enabled hub and registers it,
and the CLI exports the union afterwards.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..faults.inject import NULL_FAULTS, FaultInjector
from .metrics import NULL_METRICS, MetricsRegistry
from .tracer import NULL_TRACER, Tracer

__all__ = [
    "ObservabilityHub",
    "NULL_HUB",
    "Capture",
    "enable_capture",
    "disable_capture",
    "active_capture",
]


class ObservabilityHub:
    """Tracer, metrics and fault injector for one simulated machine.

    With a ``fault_plan`` the hub builds the real injector, disarmed:
    the control plane arms it once storage is formatted.  The same
    moment puts the hub ``in_service``; the NVMe device measures its
    commands only from then on, so neither faults nor metrics cover
    mkfs.
    """

    def __init__(
        self,
        engine,
        enabled: bool = True,
        label: str = "solros",
        max_spans: int = 250_000,
        fault_plan=None,
    ):
        self.engine = engine
        self.enabled = enabled
        self.label = label
        self.in_service = False
        if enabled:
            self.tracer = Tracer(engine, max_spans=max_spans)
            self.metrics = MetricsRegistry(engine)
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_METRICS
        if fault_plan is None:
            self.faults = NULL_FAULTS
        else:
            self.faults = FaultInjector(engine, fault_plan, self.metrics)
            self.faults.armed = False

    def __repr__(self) -> str:  # pragma: no cover
        state = "on" if self.enabled else "off"
        return f"<ObservabilityHub {self.label} {state}>"


NULL_HUB = ObservabilityHub(None, enabled=False, label="null")


class Capture:
    """A process-global collection of hubs created while active."""

    def __init__(self, max_spans_per_hub: int = 250_000):
        self.max_spans_per_hub = max_spans_per_hub
        self.hubs: List[ObservabilityHub] = []

    def new_hub(self, engine, label: str, fault_plan=None) -> ObservabilityHub:
        hub = ObservabilityHub(
            engine,
            enabled=True,
            label=f"{label}#{len(self.hubs) + 1}",
            max_spans=self.max_spans_per_hub,
            fault_plan=fault_plan,
        )
        self.hubs.append(hub)
        return hub

    def export_triples(self) -> List[Tuple[str, Tracer, MetricsRegistry]]:
        """``(label, tracer, metrics)`` rows for the exporters, hubs
        with no recorded spans omitted."""
        return [
            (hub.label, hub.tracer, hub.metrics)
            for hub in self.hubs
            if hub.tracer.spans
        ]

    def metric_pairs(self) -> List[Tuple[str, MetricsRegistry]]:
        return [
            (hub.label, hub.metrics) for hub in self.hubs if len(hub.metrics)
        ]


_ACTIVE: Optional[Capture] = None


def enable_capture(max_spans_per_hub: int = 250_000) -> Capture:
    """Start capturing: every SolrosSystem built from now on traces."""
    global _ACTIVE
    _ACTIVE = Capture(max_spans_per_hub=max_spans_per_hub)
    return _ACTIVE


def disable_capture() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_capture() -> Optional[Capture]:
    return _ACTIVE
