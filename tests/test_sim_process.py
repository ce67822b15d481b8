"""Tests for the coroutine process layer (:mod:`repro.sim.process`).

Pins the tentpole guarantees: ``await`` and ``yield`` bodies drive the
same engine machinery and produce **identical event traces** under every
scheduler kind; cancelling an event at its own fire time tombstones it
before dispatch; and :func:`~repro.sim.process.drive` inlines generator
helpers without adding events.
"""

import pytest

from repro.errors import ProcessError
from repro.sim import Environment, drive
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.sched import SCHEDULER_KINDS


# -- cancel at fire time -----------------------------------------------------------
def test_cancel_at_fire_time_tombstones_before_dispatch():
    env = Environment()
    fired = []
    wake = env.timeout(1.0)  # created first: smaller seq, dispatches first
    victim = env.timeout(1.0, value="x")
    victim.add_callback(lambda e: fired.append(e.value))

    def canceller():
        yield wake
        # same timestamp as the victim's own firing; the earlier seq
        # wins the dispatch race, so the tombstone must suppress it
        assert env.sim.cancel(victim)
        assert not env.sim.cancel(victim)  # second withdrawal is a no-op

    env.process(canceller)
    env.run()
    assert fired == []
    assert not victim.processed
    assert env.now == pytest.approx(1.0)


# -- drive -------------------------------------------------------------------------
def test_drive_returns_the_generator_value():
    env = Environment()

    def helper(n):
        yield env.sleep(1e-6)
        return n * 2

    async def body():
        return await drive(helper(21))

    proc = env.process(body)
    env.run()
    assert proc.value == 42


def test_drive_adds_zero_events_vs_yield_from():
    def run(style):
        sink = []
        engine.set_trace_sink(sink)
        try:
            env = Environment()

            def helper():
                yield env.sleep(1e-6)
                yield env.sleep(2e-6)
                return "done"

            if style == "await":

                async def body():
                    return await drive(helper())

            else:

                def body():
                    return (yield from helper())

            proc = env.process(body)
            env.run()
            return sink, proc.value
        finally:
            engine.set_trace_sink(None)

    trace_yield, value_yield = run("yield")
    trace_await, value_await = run("await")
    assert value_yield == value_await == "done"
    assert trace_await == trace_yield  # drive() == yield from, exactly


def test_drive_rejects_non_generators():
    with pytest.raises(ProcessError, match="drive"):
        drive(42)


# -- environment facade ------------------------------------------------------------
def test_environment_rejects_sim_and_scheduler_together():
    sim = Simulator()
    with pytest.raises(ProcessError):
        Environment(sim, scheduler="heap")


def test_environment_process_argument_contract():
    env = Environment()

    def gen(n):
        yield env.sleep(1e-6)
        return n

    body = gen(1)
    with pytest.raises(ProcessError, match="arguments given"):
        env.process(body, 2)
    with pytest.raises(ProcessError, match="process body"):
        env.process(object())
    proc = env.process(body)  # pre-created bodies are fine bare
    env.run()
    assert proc.value == 1


def test_await_composition_and_process_awaitable():
    env = Environment()

    async def child(n):
        await env.sleep(n * 1e-6)
        return n

    async def parent():
        first = env.process(child, 1, name="child1")
        second = env.process(child, 5, name="child2")
        winner = await env.any_of([first, second])
        assert first in winner and second not in winner
        both = await env.all_of([first, second])
        return sorted(both.values())

    proc = env.process(parent)
    env.run()
    assert proc.value == [1, 5]


# -- process-vs-callback trace identity (the tentpole guarantee) -------------------
def _scenario(env, style):
    """A producer/consumer mix exercising sleep, Store, and all_of."""
    store = env.store(name="queue")

    if style == "yield":

        def producer():
            for i in range(5):
                yield env.sleep((i + 1) * 1e-6)
                yield store.put(i)

        def consumer():
            total = 0
            for _ in range(5):
                item = yield store.get()
                total += item
            return total

    else:

        async def producer():
            for i in range(5):
                await env.sleep((i + 1) * 1e-6)
                await store.put(i)

        async def consumer():
            total = 0
            for _ in range(5):
                item = await store.get()
                total += item
            return total

    prod = env.process(producer, name="producer")
    cons = env.process(consumer, name="consumer")
    env.run(until=env.all_of([prod, cons]))
    return cons.value


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_await_vs_yield_trace_identity(kind):
    def run(style):
        sink = []
        engine.set_trace_sink(sink)
        try:
            env = Environment(scheduler=kind)
            value = _scenario(env, style)
            return sink, value, env.now
        finally:
            engine.set_trace_sink(None)

    trace_yield, value_yield, now_yield = run("yield")
    trace_await, value_await, now_await = run("await")
    assert value_yield == value_await == 10
    assert now_yield == now_await
    assert len(trace_yield) == len(trace_await)
    assert trace_yield == trace_await  # event-for-event identical


def test_trace_identity_holds_across_scheduler_kinds():
    traces = {}
    for kind in SCHEDULER_KINDS:
        sink = []
        engine.set_trace_sink(sink)
        try:
            env = Environment(scheduler=kind)
            assert _scenario(env, "await") == 10
        finally:
            engine.set_trace_sink(None)
        traces[kind] = sink
    anchor = traces[SCHEDULER_KINDS[0]]
    for kind, trace in traces.items():
        assert trace == anchor, f"{kind} diverged from {SCHEDULER_KINDS[0]}"
