"""Unit tests for Resource/Store (repro.sim.resources)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store


# --- Resource -----------------------------------------------------------------
def test_resource_mutex_serializes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(tag, hold):
        req = res.request()
        yield req
        log.append((tag, "in", sim.now))
        yield sim.timeout(hold)
        res.release(req)
        log.append((tag, "out", sim.now))

    sim.process(user("a", 2.0))
    sim.process(user("b", 1.0))
    sim.run()
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 2.0),
        ("b", "in", 2.0),
        ("b", "out", 3.0),
    ]


def test_resource_capacity_two_runs_pair_concurrently():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    finish = []

    def user(tag):
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)
        finish.append((tag, sim.now))

    for tag in "abc":
        sim.process(user(tag))
    sim.run()
    assert finish == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, arrive):
        yield sim.timeout(arrive)
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(10.0)
        res.release(req)

    sim.process(user("first", 0.1))
    sim.process(user("second", 0.2))
    sim.process(user("third", 0.3))
    sim.run()
    assert order == ["first", "second", "third"]


def test_resource_release_unknown_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    other = Resource(sim, capacity=1)
    req = res.request()
    with pytest.raises(SimulationError):
        other.release(req)


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert r1.triggered and not r2.triggered
    res.release(r2)  # cancel while queued
    assert res.queue_length == 0


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_wait_time_stats():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)

    def waiter():
        yield sim.timeout(1.0)
        req = res.request()
        yield req
        res.release(req)

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(4.0)


# --- Store ---------------------------------------------------------------------
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(3.0)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("x", 3.0)]


def test_bounded_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(2.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put-a", 0.0) in log
    assert ("got", "a", 2.0) in log
    assert ("put-b", 2.0) in log


def test_store_stats():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    sim.run()
    assert store.total_puts == 5
    assert store.max_occupancy == 5


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)
