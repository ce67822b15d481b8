"""Regression tests for the DES kernel's event free-lists.

``Simulator.sleep`` recycles :class:`Timeout` objects and
``Simulator.call_after`` recycles its heap entries.  Recycling must be
invisible: a reused object may not leak the previous occupant's value,
callbacks, or schedule.
"""

import pytest

from repro.errors import SimTimeError
from repro.sim import Simulator


def test_pooled_sleep_values_do_not_leak():
    sim = Simulator()
    log = []

    def sleeper(tag, dt):
        v = yield sim.sleep(dt)
        log.append((sim.now, tag, v))
        v = yield sim.sleep(dt)
        log.append((sim.now, tag, v))

    for i in range(50):
        sim.process(sleeper(i, 1e-3 * (i + 1)))
    sim.run()
    assert len(log) == 100
    # A pooled timeout always yields None — never a stale value.
    assert all(v is None for _, _, v in log)
    # And the wait durations were honoured per reuse.
    for now, tag, _ in log:
        assert now % (1e-3 * (tag + 1)) < 1e-12 or now > 0


def test_timeout_pool_actually_recycles_objects():
    sim = Simulator()
    seen_ids = []

    def proc():
        for _ in range(6):
            t = sim.sleep(0.1)
            seen_ids.append(id(t))
            yield t

    sim.process(proc())
    sim.run()
    # Sequential sleeps reuse pooled objects rather than allocating.
    assert len(set(seen_ids)) < len(seen_ids)
    assert len(sim._timeout_pool) >= 1


def test_interleaved_sleep_and_valued_timeouts_stay_isolated():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="payload")
        got.append(v)
        v = yield sim.sleep(1.0)
        got.append(v)
        v = yield sim.timeout(1.0, value={"k": 2})
        got.append(v)
        v = yield sim.sleep(1.0)
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["payload", None, {"k": 2}, None]


def test_call_after_fifo_order_and_argument_isolation():
    sim = Simulator()
    order = []
    # Same firing time: insertion order must be preserved.
    sim.call_after(1.0, order.append, "a")
    sim.call_after(1.0, order.append, "b")
    # Recycled callback entries must carry fresh fn/args.
    sim.call_after(2.0, lambda x, y: order.append((x, y)), 1, 2)
    sim.run()
    order2 = []
    sim.call_after(1.0, order2.append, "c")
    sim.run()
    assert order == ["a", "b", (1, 2)]
    assert order2 == ["c"]


def test_call_at_fires_at_the_exact_absolute_time_and_rejects_the_past():
    """``call_at`` lands on exactly the float it is given (reusing a
    pooled entry here) and refuses a time before the clock."""
    sim = Simulator()
    seen = []
    sim.call_after(0.1, lambda: None)
    sim.run()
    when = (sim.now + 2e-6) + 0.3e-6
    sim.call_at(when, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [when]
    with pytest.raises(SimTimeError):
        sim.call_at(sim.now - 1e-9, lambda: None)


def test_pool_is_bounded():
    sim = Simulator()

    def burst():
        yield sim.all_of([sim.timeout(1.0) for _ in range(5)])

    def many_sleeps():
        for _ in range(30):
            yield sim.sleep(0.01)

    sim.process(burst())
    sim.process(many_sleeps())
    sim.run()
    from repro.sim.engine import _POOL_MAX

    assert len(sim._timeout_pool) <= _POOL_MAX
    assert len(sim._callback_pool) <= _POOL_MAX
