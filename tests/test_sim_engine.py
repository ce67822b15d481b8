"""Unit tests for the DES kernel (repro.sim.engine)."""

import pytest

from repro.errors import ProcessError, SimTimeError
from repro.sim import Simulator, SimulationRunaway


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(1.5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [1.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimTimeError):
        sim.timeout(-1.0)


def test_timeout_value_passthrough():
    sim = Simulator()
    seen = []

    def proc():
        v = yield sim.timeout(1.0, value="hello")
        seen.append(v)

    sim.process(proc())
    sim.run()
    assert seen == ["hello"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    for delay in (3.0, 1.0, 2.0):
        def make(d):
            def proc():
                yield sim.timeout(d)
                order.append(d)
            return proc
        sim.process(make(delay)())

    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_creation_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        sim.process(proc(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 42

    def parent(results):
        value = yield sim.process(child())
        results.append(value)

    results = []
    sim.process(parent(results))
    sim.run()
    assert results == [42]


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert sim.now == 2.0


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run(until=5.5)
    assert sim.now == 5.5


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=3.0)
    with pytest.raises(SimTimeError):
        sim.run(until=1.0)


def test_uncaught_process_exception_propagates():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_failed_event_throws_into_waiter():
    sim = Simulator()
    caught = []

    def failer(ev):
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("nope"))

    def waiter(ev):
        try:
            yield ev
        except RuntimeError as e:
            caught.append(str(e))

    ev = sim.event()
    sim.process(failer(ev))
    sim.process(waiter(ev))
    sim.run()
    assert caught == ["nope"]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc():
        yield 42

    p = sim.process(proc())
    with pytest.raises(ProcessError):
        sim.run(until=p)


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_any_of_fires_on_first():
    sim = Simulator()
    seen = []

    def proc():
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        result = yield sim.any_of([t1, t2])
        seen.append((sim.now, set(result.values())))

    sim.process(proc())
    sim.run()
    assert seen == [(1.0, {"fast"})]


def test_all_of_waits_for_all():
    sim = Simulator()
    seen = []

    def proc():
        events = [sim.timeout(d) for d in (1.0, 3.0, 2.0)]
        yield sim.all_of(events)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [3.0]


def test_all_of_empty_resolves_immediately():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.all_of([])
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [0.0]


def test_already_processed_event_does_not_block():
    sim = Simulator()
    seen = []

    def proc():
        t = sim.timeout(1.0)
        yield sim.timeout(5.0)
        # t fired long ago; yielding it must continue immediately.
        yield t
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [5.0]


def test_max_events_guard():
    sim = Simulator()

    def spinner():
        while True:
            yield sim.timeout(1.0)

    sim.process(spinner())
    with pytest.raises(SimulationRunaway):
        sim.run(max_events=100)


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def worker(i):
            for k in range(5):
                yield sim.timeout(0.1 * ((i + k) % 3 + 1))
                log.append((round(sim.now, 6), i, k))

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        return log

    assert build() == build()


def test_event_count_increments():
    sim = Simulator()

    def proc():
        for _ in range(10):
            yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    assert sim.event_count >= 10
