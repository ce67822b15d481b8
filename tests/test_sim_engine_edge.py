"""Edge-case tests for the DES kernel: priorities, failures and
composite conditions."""

import pytest

from repro.errors import ProcessError
from repro.sim import NORMAL, Simulator, URGENT


def test_urgent_events_fire_before_normal_at_same_time():
    sim = Simulator()
    order = []

    normal = sim.event("n")
    urgent = sim.event("u")
    normal.add_callback(lambda e: order.append("normal"))
    urgent.add_callback(lambda e: order.append("urgent"))
    normal.succeed(priority=NORMAL)
    urgent.succeed(priority=URGENT)
    sim.run()
    assert order == ["urgent", "normal"]


def test_all_of_fails_fast_on_component_failure():
    sim = Simulator()
    caught = []

    def failer(ev):
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("part failed"))

    def waiter(events):
        try:
            yield sim.all_of(events)
        except RuntimeError as e:
            caught.append((str(e), sim.now))

    bad = sim.event()
    slow = sim.timeout(100.0)
    sim.process(failer(bad))
    sim.process(waiter([bad, slow]))
    sim.run(until=50.0)
    assert caught == [("part failed", 1.0)]


def test_process_yielding_foreign_simulator_event_fails():
    sim1, sim2 = Simulator(), Simulator()

    def proc():
        yield sim2.timeout(1.0)

    p = sim1.process(proc())
    with pytest.raises(ProcessError):
        sim1.run(until=p)


def test_nested_process_exception_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("from child")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as e:
            return f"caught {e}"

    p = sim.process(parent())
    assert sim.run(until=p) == "caught from child"


def test_condition_value_contains_fired_events():
    sim = Simulator()

    def proc():
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(1.0, value="b")
        result = yield sim.all_of([a, b])
        return sorted(result.values())

    p = sim.process(proc())
    assert sim.run(until=p) == ["a", "b"]


def test_event_value_unavailable_until_triggered():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(AttributeError):
        _ = ev.value


def test_zero_delay_timeout_runs_this_instant_after_queue():
    sim = Simulator()
    order = []

    def proc():
        sim.call_after(0.0, order.append, "cb")
        yield sim.timeout(0.0)
        order.append("proc")

    sim.process(proc())
    sim.run()
    assert order == ["cb", "proc"]
