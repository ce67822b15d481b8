"""Unit tests for the bus models (repro.sim.bus)."""

import random

import pytest

from repro.errors import BusError
from repro.sim import FCFSBus, FairShareBus, Simulator


# --- FCFSBus -----------------------------------------------------------------
def test_fcfs_single_transfer_time():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)  # 100 B/s
    done = bus.transfer(250.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.5)


def test_fcfs_serializes_transfers():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)
    t1 = bus.transfer(100.0)  # 0..1
    t2 = bus.transfer(100.0)  # 1..2
    finish = []

    def watch(ev, tag):
        yield ev
        finish.append((tag, sim.now))

    sim.process(watch(t1, "t1"))
    sim.process(watch(t2, "t2"))
    sim.run()
    assert finish == [("t1", 1.0), ("t2", 2.0)]


def test_fcfs_arbitration_latency():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0, arbitration_latency=0.5)
    done = bus.transfer(100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.5)


def test_fcfs_rejects_zero_bytes():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)
    with pytest.raises(BusError):
        bus.transfer(0)


def test_fcfs_stats():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=100.0)
    bus.transfer(100.0)
    bus.transfer(300.0)
    sim.run()
    assert bus.stats.transfer_count == 2
    assert bus.stats.bytes_transferred == pytest.approx(400.0)
    assert bus.stats.busy_time == pytest.approx(4.0)
    assert bus.stats.utilization(4.0) == pytest.approx(1.0)


def test_fcfs_invalid_bandwidth():
    sim = Simulator()
    with pytest.raises(BusError):
        FCFSBus(sim, bandwidth=0.0)


# --- FairShareBus --------------------------------------------------------------
def test_fairshare_single_flow_full_rate():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    done = bus.transfer(200.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.0)


def test_fairshare_two_equal_flows_half_rate():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    t1 = bus.transfer(100.0)
    t2 = bus.transfer(100.0)
    finish = []

    def watch(ev, tag):
        yield ev
        finish.append((tag, sim.now))

    sim.process(watch(t1, "t1"))
    sim.process(watch(t2, "t2"))
    sim.run()
    # Both progress at 50 B/s -> both finish at t=2.
    assert finish[0][1] == pytest.approx(2.0)
    assert finish[1][1] == pytest.approx(2.0)


def test_fairshare_late_joiner_slows_first_flow():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    times = {}

    def flow(tag, start, nbytes):
        yield sim.timeout(start)
        yield bus.transfer(nbytes)
        times[tag] = sim.now

    # Flow A: 150 B starting at t=0. Flow B: 50 B starting at t=1.
    # t=0..1   : A alone at 100 B/s -> A has 50 left.
    # t=1..2   : A and B at 50 B/s -> B done at t=2, A has 0 left -> also t=2.
    sim.process(flow("a", 0.0, 150.0))
    sim.process(flow("b", 1.0, 50.0))
    sim.run()
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(2.0)


def test_fairshare_rate_cap_respected():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    done = bus.transfer(100.0, rate_cap=25.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(4.0)


def test_fairshare_cap_surplus_goes_to_uncapped_flow():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    times = {}

    def flow(tag, nbytes, cap):
        yield bus.transfer(nbytes, rate_cap=cap)
        times[tag] = sim.now

    # Capped flow takes 20 B/s; other flow gets the remaining 80 B/s.
    sim.process(flow("capped", 20.0, 20.0))
    sim.process(flow("free", 80.0, float("inf")))
    sim.run()
    assert times["capped"] == pytest.approx(1.0)
    assert times["free"] == pytest.approx(1.0)


def test_fairshare_conservation_of_bytes():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=123.0)
    total = 0.0
    for nbytes in (10.0, 200.0, 33.0, 77.0):
        bus.transfer(nbytes)
        total += nbytes
    sim.run()
    assert bus.stats.bytes_transferred == pytest.approx(total)


def test_fairshare_sequential_transfers_full_rate_each():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)

    def proc():
        yield bus.transfer(100.0)
        t1 = sim.now
        yield bus.transfer(100.0)
        return (t1, sim.now)

    p = sim.process(proc())
    t1, t2 = sim.run(until=p)
    assert t1 == pytest.approx(1.0)
    assert t2 == pytest.approx(2.0)


def test_fairshare_arbitration_latency_delays_start():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0, arbitration_latency=0.25)
    done = bus.transfer(100.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(1.25)


def test_fairshare_busy_time_accounting():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)

    def proc():
        yield bus.transfer(100.0)
        yield sim.timeout(5.0)  # idle gap
        yield bus.transfer(100.0)

    sim.process(proc())
    sim.run()
    assert bus.stats.busy_time == pytest.approx(2.0)


def test_fairshare_many_flows_determinism():
    def run_once():
        sim = Simulator()
        bus = FairShareBus(sim, bandwidth=1000.0)
        times = []

        def flow(start, nbytes):
            yield sim.timeout(start)
            yield bus.transfer(nbytes)
            times.append(round(sim.now, 9))

        for i in range(20):
            sim.process(flow(i * 0.01, 100.0 + i))
        sim.run()
        return times

    assert run_once() == run_once()


# --- FairShareBus pinned schedules ---------------------------------------------
# Each case is ``([(start, nbytes, rate_cap, lead), ...], bandwidth,
# arbitration)``.  A flow's ``lead`` is the seconds it spends before
# arbitration (a DMA engine's set-up); the pinned values were computed
# by an equivalent run that slept ``lead`` and then called ``transfer``,
# on the tick-only bus that preceded the lone-flow completion path.
_INF = float("inf")


def _seeded_flows(seed, n=10):
    rng = random.Random(seed)
    return [
        (
            rng.uniform(0.0, 2e-3),
            rng.randint(64, 9000),
            rng.choice((_INF, _INF, 4e6, 2.5e7)),
            rng.choice((0.0, 0.0, 2e-6, 5e-6)),
        )
        for _ in range(n)
    ]


#: case -> (flows, bandwidth, arbitration, done times, bytes, busy time)
FAIR_SHARE_PINS = {
    "lone-joined-mid-transfer": (
        [(0.0, 3000, _INF, 0.0), (1e-3, 1000, _INF, 0.0)], 1e6, 0.0,
        (0.004, 0.003), 4000.0, 0.004,
    ),
    "join-at-lone-completion": (
        [(0.0, 1000, _INF, 0.0), (1e-3, 1000, _INF, 0.0)], 1e6, 0.0,
        (0.001, 0.002), 2000.0, 0.002,
    ),
    "rate-capped": (
        [
            (0.0, 5000, 1.5e6, 0.0), (2e-4, 4000, _INF, 0.0),
            (9e-4, 700, 2e5, 0.0), (5e-3, 100, 3e5, 0.0),
        ],
        4e6, 0.0,
        (0.003333333333333333, 0.0018782608695652174, 0.0044, 0.005333333333333333),
        9800.000000000002, 0.004733333333333333,
    ),
    "arbitration-with-lead": (
        [(0.0, 1460, _INF, 2e-6), (1e-6, 1460, _INF, 2e-6), (3e-5, 84, _INF, 0.0)],
        105.6e6, 0.3e-6,
        (2.8951515151515153e-05, 2.9951515151515153e-05, 3.1095454545454545e-05),
        3004.0, 2.8446969696969696e-05,
    ),
    "seeded-1": (
        _seeded_flows(1), 105.6e6, 0.3e-6,
        (
            0.0005432784882248025, 0.001293290174183882, 0.0016417867022710264,
            0.0020449340851152703, 0.0014355385681825562, 0.0018105308943352388,
            0.0013079522710509966, 0.0019508055430124413, 0.002849134037897173,
            0.003252497079699949,
        ),
        33796.999999999985, 0.00247843,
    ),
    "seeded-2": (
        _seeded_flows(2), 3e7, 0.0,
        (
            0.0020069251451474163, 0.0014326149479672145, 0.001246388331356925,
            0.0033829426762093874, 0.0010654073117627992, 0.0012044695423764425,
            0.0024487640707217505, 0.0004917083526916626, 0.0024526775075301138,
            0.0025451507466813994,
        ),
        43728.0, 0.003035765168679274,
    ),
    "seeded-3": (
        _seeded_flows(3), 105.6e6, 0.3e-6,
        (
            0.0005896436462433361, 0.0019344089446107873, 0.0037556868003706494,
            0.000699508207990599, 0.0013098382661999863, 0.0020817906142865934,
            0.0013569318837416665, 0.0007508353190314246, 0.001451359031287788,
            0.001528135279438527,
        ),
        58941.99999999999, 0.0027074866304582145,
    ),
}


@pytest.mark.parametrize("case", sorted(FAIR_SHARE_PINS))
def test_fairshare_schedules_are_pinned(case):
    """Overlapping transfers finish at exactly the pinned times, and the
    bus ends with exactly the pinned byte and busy-time totals."""
    flows, bandwidth, arb, want_done, want_bytes, want_busy = FAIR_SHARE_PINS[case]
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth, arbitration_latency=arb)
    done = [None] * len(flows)

    def flow(i, start, nbytes, cap, lead):
        yield sim.timeout(start)
        yield bus.transfer(nbytes, cap, lead=lead)
        done[i] = sim.now

    for i, spec in enumerate(flows):
        sim.process(flow(i, *spec))
    sim.run()
    assert tuple(done) == want_done
    assert bus.stats.bytes_transferred == want_bytes
    assert bus.stats.busy_time == want_busy
    assert bus.stats.transfer_count == len(flows)
    assert bus.active_flows == 0


def test_fairshare_lone_flow_completes_in_one_event():
    """A flow on an idle bus costs one schedule entry, its ``done``; the
    bus is settled before the waiter resumes."""
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    seen = []

    def proc():
        yield bus.transfer(250.0)
        seen.append((sim.now, bus.active_flows, bus.stats.busy_time))

    sim.process(proc())
    sim.run()
    assert seen == [(2.5, 0, 2.5)]
    assert sim.event_count == 3  # process start, done, process end


def test_fairshare_rejects_negative_lead():
    sim = Simulator()
    bus = FairShareBus(sim, bandwidth=100.0)
    with pytest.raises(BusError):
        bus.transfer(10.0, lead=-1e-6)
