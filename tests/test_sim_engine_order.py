"""Characterization tests for the engine's callback order.

Every simulated figure in this repository depends on the exact order in
which the engine runs callbacks: the stable ``(time, sequence)`` order.
These tests pin that order for the cases an engine optimisation is most
likely to disturb: same-nanosecond ties between timer expiries and
zero-delay wake-ups, waits on events that have already triggered,
interrupts racing a wake-up, and the ``until``/``max_events`` limits.
"""

import gc
import weakref

import pytest

from repro.sim import Engine, Interrupt
from repro.sim.engine import SimulationLimitExceeded


def test_same_ns_timer_expiries_run_before_zero_delay_wakeups():
    eng = Engine()
    log = []
    ev = eng.event()

    def waker(eng):
        yield 10
        log.append(("waker", eng.now))
        ev.succeed("v")
        yield 0
        log.append(("waker-after-yield-0", eng.now))

    def sleeper(eng, tag):
        yield 10
        log.append((tag, eng.now))
        yield 0
        log.append((tag + "-after-yield-0", eng.now))

    def waiter(eng):
        value = yield ev
        log.append(("waiter", eng.now, value))

    eng.spawn(waiter(eng))
    eng.spawn(waker(eng))
    eng.spawn(sleeper(eng, "s1"))
    eng.spawn(sleeper(eng, "s2"))
    eng.run()
    assert log == [
        ("waker", 10),
        ("s1", 10),
        ("s2", 10),
        ("waiter", 10, "v"),
        ("waker-after-yield-0", 10),
        ("s1-after-yield-0", 10),
        ("s2-after-yield-0", 10),
    ]


def test_timeout_events_interleave_with_zero_delay_work():
    eng = Engine()
    log = []

    def main(eng):
        t5 = eng.timeout(5, "t5")
        t0 = eng.timeout(0, "t0")
        eng.spawn(helper(eng))
        log.append(("t0", (yield t0), eng.now))
        log.append(("t5", (yield t5), eng.now))

    def helper(eng):
        log.append(("helper-start", eng.now))
        yield 5
        log.append(("helper-5", eng.now))

    eng.spawn(main(eng))
    eng.run()
    assert log == [
        ("helper-start", 0),
        ("t0", "t0", 0),
        ("helper-5", 5),
        ("t5", "t5", 5),
    ]


def test_yield_already_triggered_event_resumes_after_queued_work():
    eng = Engine()
    log = []
    ev = eng.event()

    def early(eng):
        ev.succeed(7)
        log.append(("early-triggered", eng.now))
        value = yield ev
        log.append(("early-resumed", eng.now, value))

    def other(eng):
        log.append(("other-start", eng.now))
        yield 0
        log.append(("other-after-yield-0", eng.now))

    eng.spawn(early(eng))
    eng.spawn(other(eng))
    eng.run()
    assert log == [
        ("early-triggered", 0),
        ("other-start", 0),
        ("early-resumed", 0, 7),
        ("other-after-yield-0", 0),
    ]


def test_yield_already_failed_event_consumes_the_failure():
    eng = Engine()
    log = []

    def child(eng):
        yield 5
        raise ValueError("boom")

    def main(eng):
        proc = eng.spawn(child(eng))
        yield 20
        assert proc.triggered and not proc.ok
        try:
            yield proc
        except ValueError as err:
            log.append(("caught", eng.now, str(err)))
        ev = eng.event()
        ev.fail(KeyError("k"))
        try:
            yield ev
        except KeyError:
            log.append(("caught-event", eng.now))
        return "done"

    # The child's failure was consumed by a late waiter, so run() must
    # not re-raise it at the end.
    assert eng.run_process(main(eng)) == "done"
    assert log == [("caught", 20, "boom"), ("caught-event", 20)]


def test_interrupt_while_waiting_on_triggered_event():
    eng = Engine()
    log = []
    ev = eng.event()
    ev.succeed("ready")

    def victim(eng):
        try:
            value = yield ev
            log.append(("resumed", eng.now, value))
            yield 100
            log.append(("slept", eng.now))
        except Interrupt as intr:
            log.append(("interrupted", eng.now, intr.cause))
        return "victim-done"

    def interrupter(eng, box):
        yield 0
        # The victim is now parked on ``ev`` with its wake-up queued.
        box[0].interrupt("now")

    def starter(eng):
        box = []
        eng.spawn(interrupter(eng, box))
        proc = eng.spawn(victim(eng))
        box.append(proc)
        result = yield proc
        log.append(("result", eng.now, result))

    eng.spawn(starter(eng))
    eng.run()
    # The wake-up for the triggered event was already queued when the
    # interrupt arrived, so the victim first resumes with the value and
    # the interrupt lands at its next wait.
    assert log == [
        ("resumed", 0, "ready"),
        ("interrupted", 0, "now"),
        ("result", 0, "victim-done"),
    ]


def test_interrupt_removes_pending_wait():
    eng = Engine()
    log = []
    ev = eng.event()

    def victim(eng):
        try:
            yield ev
            log.append("resumed")
        except Interrupt:
            log.append(("interrupted", eng.now))
        yield 5
        log.append(("after", eng.now))

    def main(eng):
        proc = eng.spawn(victim(eng))
        yield 3
        proc.interrupt()
        ev.succeed()
        yield proc

    eng.run_process(main(eng))
    assert log == [("interrupted", 3), ("after", 8)]


def test_run_until_stops_between_ticks_and_resumes_in_order():
    eng = Engine()
    log = []

    def ticker(eng, tag, period):
        for _ in range(3):
            yield period
            log.append((tag, eng.now))
            eng.spawn(echo(eng, tag))

    def echo(eng, tag):
        log.append((tag + "-echo", eng.now))
        yield 0
        log.append((tag + "-echo0", eng.now))

    eng.spawn(ticker(eng, "a", 10))
    eng.spawn(ticker(eng, "b", 15))
    assert eng.run(until=20) == 20
    first = list(log)
    assert first == [
        ("a", 10),
        ("a-echo", 10),
        ("a-echo0", 10),
        ("b", 15),
        ("b-echo", 15),
        ("b-echo0", 15),
        ("a", 20),
        ("a-echo", 20),
        ("a-echo0", 20),
    ]
    assert eng.run() == 45
    # At t=30 both ticks were queued before the clock got there, so they
    # run before either tick's zero-delay follow-ups.
    assert log[len(first):] == [
        ("b", 30),
        ("a", 30),
        ("b-echo", 30),
        ("a-echo", 30),
        ("b-echo0", 30),
        ("a-echo0", 30),
        ("b", 45),
        ("b-echo", 45),
        ("b-echo0", 45),
    ]


def test_run_until_in_the_past_rewinds_and_keeps_pending_work():
    eng = Engine()
    log = []

    def main(eng):
        yield 100
        log.append(("main", eng.now))

    eng.run_process(main(eng))

    def late(eng):
        log.append(("late", eng.now))
        yield 1
        log.append(("late+1", eng.now))

    eng.spawn(late(eng))
    assert eng.run(until=50) == 50
    assert log == [("main", 100)]
    assert eng.run() == 101
    assert log == [("main", 100), ("late", 100), ("late+1", 101)]


def test_max_events_stops_mid_tick_and_resumes_in_order():
    eng = Engine()
    log = []

    def worker(eng, tag):
        for _ in range(3):
            log.append((tag, eng.now))
            yield 0
            yield 1

    for tag in "abc":
        eng.spawn(worker(eng, tag))
    with pytest.raises(SimulationLimitExceeded):
        eng.run(max_events=4)
    assert log == [("a", 0), ("b", 0), ("c", 0)]
    eng.run()
    assert log == [
        ("a", 0), ("b", 0), ("c", 0),
        ("a", 1), ("b", 1), ("c", 1),
        ("a", 2), ("b", 2), ("c", 2),
    ]


class _Payload:
    pass


def test_finished_process_return_value_freed_without_gc():
    eng = Engine()
    ref = []

    def child(eng):
        yield 1
        payload = _Payload()
        ref.append(weakref.ref(payload))
        return payload

    def main(eng):
        yield eng.spawn(child(eng))
        yield 1

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        eng.run_process(main(eng))
        # Nothing outside the engine holds the child process; once it
        # has finished and been delivered, its return value must not be
        # kept alive by a reference cycle waiting for the collector.
        assert ref[0]() is None
    finally:
        if was_enabled:
            gc.enable()
