"""Deterministic discrete-event simulation kernel.

Submodules:

* :mod:`repro.sim.engine` — the event loop, processes, events.
* :mod:`repro.sim.primitives` — locks, semaphores, stores, gates.
* :mod:`repro.sim.resources` — capacity pools and bandwidth links.
* :mod:`repro.sim.stats` — percentiles, CDFs, throughput meters.
"""

from .engine import Engine, Event, Interrupt, Process, SimError
from .primitives import Gate, Lock, Semaphore, Store, WouldBlock
from .resources import BandwidthLink, Resource
from .stats import Histogram, ThroughputMeter, cdf_points, percentile, summarize

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Interrupt",
    "SimError",
    "Lock",
    "Semaphore",
    "Store",
    "Gate",
    "WouldBlock",
    "Resource",
    "BandwidthLink",
    "percentile",
    "summarize",
    "cdf_points",
    "Histogram",
    "ThroughputMeter",
]
