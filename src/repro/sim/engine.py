"""Discrete-event simulation kernel.

Everything in this reproduction runs on top of this small, deterministic,
generator-based discrete-event engine.  The design follows the classic
process-interaction style (as popularized by SimPy) but is intentionally
minimal and fully deterministic:

* time is an integer number of **nanoseconds** (no floating-point drift),
* event delivery order is a stable ``(time, sequence)`` order (zero-delay
  callbacks wait in a FIFO ready queue that drains after the heap entries
  already due at the current time, which is the same order),
* processes are plain Python generators that ``yield`` either a delay
  (``int`` nanoseconds) or an :class:`Event` to wait on.

Example::

    eng = Engine()

    def worker(eng):
        yield 100                 # sleep 100 ns
        return "done"

    def main(eng):
        proc = eng.spawn(worker(eng), name="worker")
        result = yield proc       # wait for completion
        assert result == "done"

    eng.spawn(main(eng), name="main")
    eng.run()
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from itertools import count
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Engine",
    "Event",
    "Process",
    "Interrupt",
    "SimError",
    "SimulationLimitExceeded",
]


class SimError(Exception):
    """Base class for all simulation-kernel errors."""


class SimulationLimitExceeded(SimError):
    """Raised when ``Engine.run`` exceeds its event budget."""


class Interrupt(SimError):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries whatever object the interrupter
    supplied (e.g. a device-failure record for failure injection).
    """

    def __init__(self, cause: Any = None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


# Event states.
_PENDING = 0
_SUCCEEDED = 1
_FAILED = 2


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending* and is triggered exactly once with either
    :meth:`succeed` (carrying an optional value) or :meth:`fail`
    (carrying an exception).  Any process yielding a triggered event
    resumes immediately (at the current simulation time).
    """

    __slots__ = ("engine", "_state", "_value", "_callbacks", "_failure_consumed")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._state = _PENDING
        self._value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []
        self._failure_consumed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._state != _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded (False while pending)."""
        return self._state == _SUCCEEDED

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimError(f"event already triggered: {self!r}")
        self._state = _SUCCEEDED
        self._value = value
        self.engine._queue_triggered(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiters have the exception thrown into them at their yield point.
        """
        if self._state != _PENDING:
            raise SimError(f"event already triggered: {self!r}")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _FAILED
        self._value = exc
        self.engine._queue_triggered(self)
        return self

    # ------------------------------------------------------------------
    # Callback plumbing (used by Process and the synchronization
    # primitives; not part of the user-facing API).
    # ------------------------------------------------------------------
    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._state == _PENDING:
            self._callbacks.append(callback)
        else:
            # Already triggered: deliver on the next engine step so the
            # caller observes uniform asynchronous semantics.
            if self._state == _FAILED:
                self._failure_consumed = True
            self.engine._schedule(0, partial(callback, self))

    def _remove_callback(self, callback: Callable[["Event"], None]) -> None:
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def _deliver(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        if callbacks and self._state == _FAILED:
            self._failure_consumed = True
        for callback in callbacks:
            callback(self)


class Process(Event):
    """A running simulation process.

    A process wraps a generator.  It is itself an :class:`Event` that
    triggers when the generator finishes: the success value is the
    generator's ``return`` value; if the generator raises, the process
    fails with that exception (which propagates to any waiter, or aborts
    the simulation if nobody is waiting).
    """

    __slots__ = ("name", "_gen", "_waiting_on", "_resume_cb", "_resume")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "?"):
        super().__init__(engine)
        if not hasattr(gen, "send"):
            raise TypeError(f"process body must be a generator, got {gen!r}")
        self.name = name
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        # Bound methods made once, not per wait.  Each refers back to
        # the process, so _release() drops them when the generator ends.
        self._resume_cb = self._on_event
        self._resume = self._step
        # Kick off on the next engine step.
        engine._schedule(0, self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {_PENDING: "running", _SUCCEEDED: "done", _FAILED: "failed"}
        return f"<Process {self.name} {state[self._state]}>"

    @property
    def alive(self) -> bool:
        """True while the process generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if not self.alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._remove_callback(self._resume_cb)
            self._waiting_on = None
        self.engine._schedule(0, partial(self._step, None, Interrupt(cause)))

    # ------------------------------------------------------------------
    # Generator driving
    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if event._state == _SUCCEEDED:
            self._step(event._value)
        else:
            self._step(None, event._value)

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._state != _PENDING:
            return  # interrupted after completion; nothing to do
        engine = self.engine
        prev = engine._active
        engine._active = self
        try:
            if exc is not None:
                command = self._gen.throw(exc)
            else:
                command = self._gen.send(value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - must capture all
            self._finish_fail(error)
            return
        finally:
            engine._active = prev
        if type(command) is int and command >= 0:
            engine._schedule(command, self._resume)
        else:
            self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        # Invalid commands are thrown back *into* the generator (rather
        # than failing the process outright) so that try/finally blocks
        # in user code still run.
        if isinstance(command, Event):
            self._waiting_on = command
            command._add_callback(self._resume_cb)
        elif isinstance(command, (int, float)):
            delay = int(command)  # time is integer nanoseconds
            if delay < 0:
                self._throw_in(SimError(f"negative delay: {command}"))
                return
            self.engine._schedule(delay, self._resume)
        elif hasattr(command, "send") and hasattr(command, "throw"):
            # A generator was yielded directly — almost always a
            # sub-coroutine called without ``yield from``, which would
            # otherwise silently skip its simulated work.
            self._throw_in(
                SimError(
                    f"process {self.name} yielded a generator "
                    f"{command!r} — did you mean 'yield from'? "
                    f"(bare 'yield gen' discards the coroutine)"
                )
            )
        else:
            self._throw_in(
                SimError(
                    f"process {self.name} yielded unsupported command: "
                    f"{command!r} (expected int delay or Event)"
                )
            )

    def _throw_in(self, error: BaseException) -> None:
        self.engine._schedule(0, partial(self._step, None, error))

    def _finish_ok(self, value: Any) -> None:
        self._state = _SUCCEEDED
        self._value = value
        self._release()

    def _finish_fail(self, error: BaseException) -> None:
        self._state = _FAILED
        self._value = error
        self.engine._register_failure(self, error)
        self._release()

    def _release(self) -> None:
        # Break the process <-> bound-method cycles so a finished
        # process, and its result, is freed by reference counting rather
        # than waiting for the cyclic collector.
        self._gen = self._resume_cb = self._resume = None
        self.engine._queue_triggered(self)


class Engine:
    """The simulation engine: event heap, clock, and process registry."""

    def __init__(self) -> None:
        self._now = 0
        self._heap: List = []
        self._ready: deque = deque()  # zero-delay callbacks, due at _now
        self._seq = count()
        self._active: Optional[Process] = None
        self._unhandled: List[tuple] = []
        self._nprocs = 0
        #: Callbacks run by :meth:`run` over the engine's lifetime.
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in integer nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active

    # ------------------------------------------------------------------
    # Process / event creation
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from generator ``gen``."""
        self._nprocs += 1
        return Process(self, gen, name or f"proc-{self._nprocs}")

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Event:
        """An event that succeeds ``delay`` ns from now with ``value``."""
        if delay < 0:
            raise SimError(f"negative delay: {delay}")
        ev = Event(self)
        self._schedule(int(delay), partial(ev.succeed, value))
        return ev

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that succeeds once every input event has succeeded.

        The success value is the list of input values in input order.
        Fails fast on the first input failure.
        """
        events = list(events)
        done = Event(self)
        remaining = [len(events)]
        if not events:
            done.succeed([])
            return done

        def on_each(_ev: Event) -> None:
            if done.triggered:
                return
            if not _ev.ok:
                done.fail(_ev.value)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                done.succeed([e.value for e in events])

        for ev in events:
            ev._add_callback(on_each)
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that triggers as soon as any input event triggers.

        Succeeds with ``(index, value)`` of the first event, or fails
        with the first failure.
        """
        events = list(events)
        done = Event(self)
        if not events:
            raise SimError("any_of requires at least one event")

        def make_cb(index: int) -> Callable[[Event], None]:
            def on_one(ev: Event) -> None:
                if done.triggered:
                    return
                if ev.ok:
                    done.succeed((index, ev.value))
                else:
                    done.fail(ev.value)

            return on_one

        for i, ev in enumerate(events):
            ev._add_callback(make_cb(i))
        return done

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _schedule(self, delay: int, callback: Callable[[], None]) -> None:
        # Every callback is scheduled here (tools may wrap this method on
        # an instance to count events).  A zero-delay callback is due now
        # and after every heap entry already due now: those entries were
        # all scheduled before the clock reached now, so they hold lower
        # sequence numbers.  A FIFO queue keeps that order without a heap
        # push and pop.
        if delay:
            heapq.heappush(
                self._heap, (self._now + delay, next(self._seq), callback)
            )
        else:
            self._ready.append(callback)

    def _queue_triggered(self, event: Event) -> None:
        # Nothing can add a callback to a triggered event (_add_callback
        # schedules it directly), so with none there is nothing to deliver.
        if event._callbacks:
            self._schedule(0, event._deliver)

    def _register_failure(self, proc: Process, error: BaseException) -> None:
        # If nobody waits on the process by the time the failure is
        # delivered, run() re-raises to make bugs loud.
        self._unhandled.append((proc, error))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run until the heap drains, ``until`` ns is reached, or the
        event budget ``max_events`` is exhausted.

        Returns the final simulation time.  Re-raises the first process
        failure that no other process consumed.
        """
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        processed = 0
        try:
            while True:
                if ready and not (heap and heap[0][0] == self._now):
                    if until is not None and self._now > until:
                        self._rewind(until)
                        break
                    callback = ready.popleft()
                elif heap:
                    when = heap[0][0]
                    if until is not None and when > until:
                        self._rewind(until)
                        break
                    self._now = when
                    callback = heappop(heap)[2]
                else:
                    break
                callback()
                processed += 1
                if max_events is not None and processed > max_events:
                    raise SimulationLimitExceeded(
                        f"exceeded {max_events} events at t={self._now}ns"
                    )
        finally:
            self.events_processed += processed
        self._check_failures()
        return self._now

    def _rewind(self, until: int) -> None:
        """Stop the clock at ``until``, which may lie in the past.

        Queued zero-delay callbacks stay due at the old time: they move
        to the heap in FIFO order, behind the entries already there.
        """
        while self._ready:
            heapq.heappush(
                self._heap, (self._now, next(self._seq), self._ready.popleft())
            )
        self._now = until

    def run_process(
        self,
        gen: Generator,
        name: str = "main",
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Spawn ``gen``, run to completion, and return its result.

        This is the standard entry point for tests and benchmarks.
        """
        proc = self.spawn(gen, name=name)
        self.run(until=until, max_events=max_events)
        if not proc.triggered:
            raise SimError(
                f"process {name!r} did not finish (deadlock or until-limit)"
            )
        if not proc.ok:
            raise proc.value
        return proc.value

    def _check_failures(self) -> None:
        """Raise the first process failure that no waiter consumed.

        Called once the event heap drains (or the until-limit hits), so
        that waiters registered at any point during the run get the
        chance to consume the failure first.
        """
        while self._unhandled:
            proc, error = self._unhandled.pop(0)
            if not proc._failure_consumed:
                raise error
