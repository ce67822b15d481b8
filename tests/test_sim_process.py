"""Tests for the coroutine process layer (:mod:`repro.sim.process`).

Pins the tentpole guarantees: ``await`` and ``yield`` bodies drive the
same engine machinery and produce **identical event traces** on either
scheduler backend, model scenarios included (host TCP through
``ParallelApp``, the INIC card driver through :func:`drive`);
cancelling an event at its own fire time tombstones it before dispatch;
and :func:`~repro.sim.process.drive` inlines generator helpers without
adding events.
"""

import pytest

from repro.apps import netbench
from repro.cluster.app import ParallelApp
from repro.cluster.builder import Cluster, ClusterSpec
from repro.core.api import Experiment
from repro.core.design import protocol_processor_design
from repro.errors import ProcessError
from repro.inic.card import IDEAL_INIC
from repro.net.addresses import MacAddress
from repro.sim import Environment, drive
from repro.sim import engine
from repro.sim.sched import native_available

from .test_sim_sched import KINDS, _use


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


@pytest.mark.parametrize("kind", KINDS)
def test_await_vs_yield_trace_identity(kind, monkeypatch):
    _use(kind, monkeypatch)

    def run(style):
        sink = []
        engine.set_trace_sink(sink)
        try:
            env = Environment()
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
    for kind in KINDS:
        sink = []
        engine.set_trace_sink(sink)
        try:
            with pytest.MonkeyPatch.context() as m:
                _use(kind, m)
                assert _scenario(Environment(), "await") == 10
        finally:
            engine.set_trace_sink(None)
        traces[kind] = sink
    anchor = traces[KINDS[0]]
    for kind, trace in traces.items():
        assert trace == anchor, f"{kind} diverged from {KINDS[0]}"


# -- model scenarios: a generator original and its async port ----------------------
_REPS = 4


def _async_tcp_pingpong(nbytes, sims):
    """:func:`netbench.tcp_pingpong` with an ``async`` rank program."""
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    sims.append(cluster.sim)

    async def program(ctx):
        for i in range(_REPS):
            if ctx.rank == 0:
                await ctx.send(1, nbytes, tag=i)
                await ctx.recv(src=1, tag=i)
            else:
                await ctx.recv(src=0, tag=i)
                await ctx.send(0, nbytes, tag=i)

    return ParallelApp(cluster).run(program).makespan


def _inic_pair(sims):
    """The two configured cards :mod:`repro.apps.netbench` runs on."""
    session = Experiment().nodes(2).card(IDEAL_INIC).build()
    session.manager.configure_all(protocol_processor_design)
    sims.append(session.cluster.sim)
    return session.manager, session.cluster.sim


def _async_inic_pingpong(nbytes, sims):
    """:func:`netbench.inic_pingpong` with ``async`` node bodies that run
    the card driver's generator helpers through :func:`drive`."""
    manager, sim = _inic_pair(sims)
    t0 = sim.now

    async def node(rank):
        driver = manager.driver(rank)
        peer = MacAddress(1 - rank)
        for i in range(_REPS):
            if rank == 0:
                await drive(driver.send_message(peer, nbytes, tag=2 * i))
                await drive(driver.recv_message(peer, nbytes, tag=2 * i + 1))
            else:
                await drive(driver.recv_message(peer, nbytes, tag=2 * i))
                await drive(driver.send_message(peer, nbytes, tag=2 * i + 1))

    sim.run(until=sim.all_of([sim.process(node(r)) for r in (0, 1)]))
    return sim.now - t0


def _async_inic_stream(nbytes, sims):
    """:func:`netbench.inic_stream` with an ``async`` sender and receiver
    that run the card driver's generator helpers through :func:`drive`."""
    manager, sim = _inic_pair(sims)
    t0 = sim.now

    async def sender():
        driver = manager.driver(0)
        for i in range(_REPS):
            await drive(driver.send_message(MacAddress(1), nbytes, tag=i))

    async def receiver():
        driver = manager.driver(1)
        for i in range(_REPS):
            await drive(driver.recv_message(MacAddress(0), nbytes, tag=i))

    sim.run(until=sim.all_of([sim.process(sender()), sim.process(receiver())]))
    return sim.now - t0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "original, port, nbytes",
    [
        (netbench.tcp_pingpong, _async_tcp_pingpong, 64),
        (netbench.inic_pingpong, _async_inic_pingpong, 64),
        (netbench.inic_stream, _async_inic_stream, 1 << 14),
    ],
    ids=["tcp-pingpong", "inic-pingpong", "inic-stream"],
)
def test_async_port_of_a_model_scenario_is_trace_identical(
    kind, original, port, nbytes, monkeypatch
):
    """A netbench scenario and its ``async`` port give the same
    ``(when, prio, seq, type)`` stream and the same time, on either
    scheduler backend (native: the compiled extension when it is
    built)."""
    _use(kind, monkeypatch)
    traces, times, sims = [], [], []
    for run in (
        lambda: original(nbytes, _REPS).total_time,
        lambda: port(nbytes, sims),
    ):
        sink = []
        engine.set_trace_sink(sink)
        try:
            times.append(run())
        finally:
            engine.set_trace_sink(None)
        traces.append(sink)
    assert times[0] == times[1] > 0
    assert len(traces[0]) == len(traces[1]) > 0
    assert traces[0] == traces[1]
    (sim,) = sims
    assert sim.sched_stats()["compiled"] == (kind == "native" and native_available())
