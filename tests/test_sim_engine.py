"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, Interrupt, SimError
from repro.sim.engine import SimulationLimitExceeded


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0


def test_timeout_advances_clock():
    eng = Engine()

    def main(eng):
        yield 100
        assert eng.now == 100
        yield 250
        assert eng.now == 350
        return eng.now

    assert eng.run_process(main(eng)) == 350


def test_float_delay_truncates_to_int_ns():
    eng = Engine()

    def main(eng):
        yield 10.9
        return eng.now

    assert eng.run_process(main(eng)) == 10


def test_zero_delay_is_allowed():
    eng = Engine()

    def main(eng):
        yield 0
        return "ok"

    assert eng.run_process(main(eng)) == "ok"


def test_negative_delay_fails_process():
    eng = Engine()

    def main(eng):
        yield -5

    with pytest.raises(SimError):
        eng.run_process(main(eng))


def test_yield_bad_command_fails_process():
    eng = Engine()

    def main(eng):
        yield "nonsense"

    with pytest.raises(SimError):
        eng.run_process(main(eng))


def test_process_return_value_propagates():
    eng = Engine()

    def child(eng):
        yield 10
        return 42

    def main(eng):
        result = yield eng.spawn(child(eng))
        return result

    assert eng.run_process(main(eng)) == 42


def test_waiting_on_finished_process_returns_immediately():
    eng = Engine()

    def child(eng):
        yield 1
        return "early"

    def main(eng):
        proc = eng.spawn(child(eng))
        yield 100  # child finishes long before we wait
        result = yield proc
        assert eng.now == 100
        return result

    assert eng.run_process(main(eng)) == "early"


def test_child_exception_propagates_to_waiter():
    eng = Engine()

    def child(eng):
        yield 5
        raise ValueError("boom")

    def main(eng):
        try:
            yield eng.spawn(child(eng))
        except ValueError as e:
            return str(e)
        return "not raised"

    assert eng.run_process(main(eng)) == "boom"


def test_unhandled_background_failure_raises_at_end():
    eng = Engine()

    def crasher(eng):
        yield 5
        raise RuntimeError("background crash")

    eng.spawn(crasher(eng))
    with pytest.raises(RuntimeError, match="background crash"):
        eng.run()


def test_event_succeed_wakes_waiter_with_value():
    eng = Engine()
    ev = eng.event()
    log = []

    def waiter(eng):
        value = yield ev
        log.append((eng.now, value))

    def trigger(eng):
        yield 30
        ev.succeed("payload")

    eng.spawn(waiter(eng))
    eng.spawn(trigger(eng))
    eng.run()
    assert log == [(30, "payload")]


def test_event_double_trigger_rejected():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    eng = Engine()
    ev = eng.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_all_of_collects_values_in_order():
    eng = Engine()

    def child(eng, delay, value):
        yield delay
        return value

    def main(eng):
        procs = [
            eng.spawn(child(eng, 30, "a")),
            eng.spawn(child(eng, 10, "b")),
            eng.spawn(child(eng, 20, "c")),
        ]
        values = yield eng.all_of(procs)
        assert eng.now == 30
        return values

    assert eng.run_process(main(eng)) == ["a", "b", "c"]


def test_all_of_empty_is_immediate():
    eng = Engine()

    def main(eng):
        values = yield eng.all_of([])
        return values

    assert eng.run_process(main(eng)) == []


def test_any_of_returns_first():
    eng = Engine()

    def child(eng, delay, value):
        yield delay
        return value

    def main(eng):
        procs = [
            eng.spawn(child(eng, 30, "slow")),
            eng.spawn(child(eng, 10, "fast")),
        ]
        index, value = yield eng.any_of(procs)
        assert eng.now == 10
        return (index, value)

    assert eng.run_process(main(eng)) == (1, "fast")


def test_interrupt_throws_into_wait():
    eng = Engine()
    log = []

    def sleeper(eng):
        try:
            yield 1_000_000
        except Interrupt as intr:
            log.append((eng.now, intr.cause))
            return "interrupted"
        return "slept"

    def main(eng):
        proc = eng.spawn(sleeper(eng))
        yield 50
        proc.interrupt("wakeup")
        result = yield proc
        return result

    assert eng.run_process(main(eng)) == "interrupted"
    assert log == [(50, "wakeup")]


def test_interrupt_after_completion_is_noop():
    eng = Engine()

    def quick(eng):
        yield 1
        return "done"

    def main(eng):
        proc = eng.spawn(quick(eng))
        yield 10
        proc.interrupt("too late")
        result = yield proc
        return result

    assert eng.run_process(main(eng)) == "done"


def test_run_until_limits_time():
    eng = Engine()

    def forever(eng):
        while True:
            yield 100

    eng.spawn(forever(eng))
    final = eng.run(until=1_000)
    assert final == 1_000


def test_max_events_guard():
    eng = Engine()

    def forever(eng):
        while True:
            yield 1

    eng.spawn(forever(eng))
    with pytest.raises(SimulationLimitExceeded):
        eng.run(max_events=1000)


def test_deterministic_fifo_order_at_same_time():
    eng = Engine()
    log = []

    def worker(eng, tag):
        yield 10
        log.append(tag)

    for tag in ["a", "b", "c", "d"]:
        eng.spawn(worker(eng, tag))
    eng.run()
    assert log == ["a", "b", "c", "d"]


def test_run_process_detects_deadlock():
    eng = Engine()

    def stuck(eng):
        yield eng.event()  # never triggered

    with pytest.raises(SimError, match="did not finish"):
        eng.run_process(stuck(eng))


def test_nested_generator_delegation():
    eng = Engine()

    def inner(eng):
        yield 25
        return "inner-done"

    def outer(eng):
        result = yield from inner(eng)
        assert eng.now == 25
        yield 5
        return result

    assert eng.run_process(outer(eng)) == "inner-done"
    assert eng.now == 30


def test_events_processed_counts_callbacks_run():
    eng = Engine()

    def sleeper(eng):
        for _ in range(3):
            yield 10

    eng.spawn(sleeper(eng))
    eng.run()
    # One start plus three wake-ups; nobody waits on the finished
    # process, so its completion costs no delivery callback.
    assert eng.events_processed == 4

    def forever(eng):
        while True:
            yield 1

    eng.spawn(forever(eng))
    with pytest.raises(SimulationLimitExceeded):
        eng.run(max_events=10)
    assert eng.events_processed == 4 + 11
