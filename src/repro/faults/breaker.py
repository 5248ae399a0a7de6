"""Per-device circuit breaker (CLOSED → OPEN → HALF_OPEN).

Guards the P2P NVMe data path: after ``failure_threshold`` consecutive
injected-fault failures the breaker opens and the proxy degrades to
the host-staged buffered path.  After ``reset_ns`` of simulated time
the breaker half-opens and lets probe traffic through; one probe
success closes it again, one probe failure re-opens it.

All transitions run on the virtual clock, so breaker behavior is as
deterministic as everything else in the simulation.  Note the
half-open state admits *every* caller until the first probe verdict
lands — with the single-threaded proxy worker pool that is one
request in practice, and the simplification keeps the breaker free of
extra lock state on the hot path.
"""

from __future__ import annotations

from ..sim.engine import Engine

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

# Numeric encoding for the state gauge (docs/OBSERVABILITY.md).
_STATE_CODE = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}


class CircuitBreaker:
    """One breaker, usually keyed by device node name."""

    def __init__(
        self,
        engine: Engine,
        name: str,
        obs,
        failure_threshold: int = 3,
        reset_ns: int = 2_000_000,
    ):
        if failure_threshold < 1 or reset_ns < 1:
            raise ValueError("bad circuit breaker parameters")
        self.engine = engine
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_ns = reset_ns
        # ``obs`` is the owner's hook bundle (repro.obs.ObservabilityHub).
        self.injector = obs.faults
        self.state = CLOSED
        self.failures = 0        # consecutive failures while closed
        self.trips = 0
        self._opened_at = 0
        self._g_state = obs.metrics.gauge(f"faults.breaker.{name}.state")
        self._g_state.set(_STATE_CODE[self.state])

    def _set_state(self, state: str) -> None:
        self.state = state
        self._g_state.set(_STATE_CODE[state])

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May the guarded path be attempted right now?"""
        if self.state == OPEN:
            if self.engine.now >= self._opened_at + self.reset_ns:
                self._set_state(HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        self.failures = 0
        if self.state != CLOSED:
            self._set_state(CLOSED)

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self.trips += 1
        self.failures = 0
        self._opened_at = self.engine.now
        self._set_state(OPEN)
        self.injector.breaker_trip()

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "trips": self.trips,
            "failures": self.failures,
        }
