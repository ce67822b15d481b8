"""Integration tests for the INIC card datapath."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FPGAResourceError, OffloadError
from repro.hw import CPU, CacheLevel, MemoryHierarchy
from repro.inic import (
    ACEII_PROTOTYPE,
    Design,
    IDEAL_INIC,
    INICCard,
    ScatterOp,
    SendBlock,
)
from repro.inic.cores import (
    BucketSortCore,
    DepacketizerCore,
    FIFOCore,
    LocalTransposeCore,
    PacketizerCore,
    ReduceCore,
)
from repro.net import BROADCAST, GIGABIT_ETHERNET, MacAddress, build_star
from repro.protocols import TransferPlan
from repro.sim import Simulator
from repro.units import MiB


def make_cpu(sim):
    mh = MemoryHierarchy([CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9)])
    return CPU(sim, mh)


def make_cards(n=2, spec=IDEAL_INIC):
    sim = Simulator()
    cards, cpus = [], []
    for i in range(n):
        cpu = make_cpu(sim)
        card = INICCard(sim, MacAddress(i), spec=spec, cpu=cpu, name=f"inic{i}")
        cards.append(card)
        cpus.append(cpu)
    build_star(
        sim, [(MacAddress(i), cards[i]) for i in range(n)], tech=GIGABIT_ETHERNET
    )
    return sim, cards, cpus


def basic_design():
    return Design(
        "basic",
        [PacketizerCore(), DepacketizerCore(), FIFOCore()],
        mode="combined",
    )


def test_scatter_gather_round_trip_with_payload():
    sim, cards, _ = make_cards()
    payload = np.arange(1000, dtype=np.float64)
    results = {}

    def node0():
        yield from cards[0].configure(basic_design())
        op = cards[0].post_scatter(
            7, [SendBlock(dst=MacAddress(1), nbytes=payload.nbytes, data=payload)]
        )
        yield op.sent

    def node1():
        yield from cards[1].configure(basic_design())
        plan = TransferPlan(sim, {0: payload.nbytes})
        op = cards[1].post_gather(7, plan)
        results["out"] = yield op.done

    sim.process(node0())
    sim.process(node1())
    sim.run()
    got = results["out"][0][0]
    assert np.array_equal(got, payload)


def test_single_completion_interrupt_per_gather():
    """Section 4.1: 'a single interrupt per transpose'."""
    sim, cards, cpus = make_cards()
    payload = np.zeros(512 * 1024, dtype=np.uint8)  # 512 KiB, many packets

    def node0():
        yield from cards[0].configure(basic_design())
        cards[0].post_scatter(
            1, [SendBlock(MacAddress(1), payload.nbytes, payload)]
        )
        return None
        yield

    def node1():
        yield from cards[1].configure(basic_design())
        plan = TransferPlan(sim, {0: payload.nbytes})
        op = cards[1].post_gather(1, plan)
        yield op.done

    sim.process(node0())
    sim.process(node1())
    sim.run()
    assert cards[1].stats.completion_interrupts == 1
    assert cards[1].stats.frames_received == -(-payload.nbytes // 1024)
    # Host CPU paid only the one completion cost, not per-packet costs.
    assert cpus[1].interrupt_time == pytest.approx(
        cards[1].spec.completion_irq_cost
    )


def test_transfer_rate_matches_eq_rates_ideal():
    """A large one-way transfer should stream at ~min(80,90) MiB/s + fill."""
    sim, cards, _ = make_cards(spec=IDEAL_INIC)
    nbytes = 8 * MiB
    t = {}

    def node0():
        yield from cards[0].configure(basic_design())
        t0 = sim.now
        cards[0].post_scatter(1, [SendBlock(MacAddress(1), nbytes)])
        plan_done = cards[1].post_gather(1, TransferPlan(sim, {0: nbytes}))
        yield plan_done.done
        t["dt"] = sim.now - t0

    def node1():
        yield from cards[1].configure(basic_design())
        return None
        yield

    sim.process(node1())
    sim.process(node0())
    sim.run()
    rate = nbytes / t["dt"]
    # Host path (80 MiB/s) is the slowest pipeline stage.
    assert rate == pytest.approx(80 * MiB, rel=0.15)


def test_prototype_shared_bus_halves_throughput():
    t = {}
    for label, spec in (("ideal", IDEAL_INIC), ("proto", ACEII_PROTOTYPE)):
        sim, cards, _ = make_cards(spec=spec)
        nbytes = 4 * MiB

        def node0():
            yield from cards[0].configure(basic_design())
            t0 = sim.now
            cards[0].post_scatter(1, [SendBlock(MacAddress(1), nbytes)])
            op = cards[1].post_gather(1, TransferPlan(sim, {0: nbytes}))
            yield op.done
            t[label] = sim.now - t0

        def node1():
            yield from cards[1].configure(basic_design())
            return None
            yield

        sim.process(node1())
        sim.process(node0())
        sim.run()
    # Prototype pays two bus crossings per byte per card:
    # ~112/2 = 56 MB/s vs the ideal's 80 MiB/s bottleneck stage.
    assert t["proto"] > 1.4 * t["ideal"]


def test_self_addressed_block_bypasses_network():
    sim, cards, _ = make_cards()
    payload = np.arange(100, dtype=np.int32)
    results = {}

    def node0():
        yield from cards[0].configure(basic_design())
        plan = TransferPlan(sim, {0: payload.nbytes})
        gop = cards[0].post_gather(3, plan)
        cards[0].post_scatter(
            3, [SendBlock(MacAddress(0), payload.nbytes, payload)]
        )
        results["out"] = yield gop.done

    sim.process(node0())
    sim.run()
    assert np.array_equal(results["out"][0][0], payload)
    assert cards[0].stats.frames_sent == 0  # never touched the wire


def test_gather_posted_after_frames_arrive():
    """Early frames are buffered until the gather descriptor lands."""
    sim, cards, _ = make_cards()
    payload = np.ones(2048, dtype=np.uint8)
    results = {}

    def node0():
        yield from cards[0].configure(basic_design())
        cards[0].post_scatter(9, [SendBlock(MacAddress(1), 2048, payload)])
        return None
        yield

    def node1():
        yield from cards[1].configure(basic_design())
        yield sim.timeout(0.1)  # frames arrive long before this
        op = cards[1].post_gather(9, TransferPlan(sim, {0: 2048}))
        results["out"] = yield op.done

    sim.process(node0())
    sim.process(node1())
    sim.run()
    assert np.array_equal(results["out"][0][0], payload)


def test_reduce_gather_accumulates_in_datapath():
    sim, cards, _ = make_cards(n=3)
    contrib = np.arange(64, dtype=np.float64)
    results = {}

    def root():
        yield from cards[0].configure(
            Design("reduce", [PacketizerCore(), DepacketizerCore(), ReduceCore("sum")])
        )
        plan = TransferPlan(sim, {1: contrib.nbytes, 2: contrib.nbytes})
        op = cards[0].post_gather(5, plan, reduce_core=cards[0].require_core("reduce-sum"))
        results["sum"] = yield op.done

    def leaf(i):
        yield from cards[i].configure(basic_design())
        cards[i].post_scatter(
            5, [SendBlock(MacAddress(0), contrib.nbytes, contrib * i)]
        )
        return None
        yield

    sim.process(root())
    sim.process(leaf(1))
    sim.process(leaf(2))
    sim.run()
    assert np.array_equal(results["sum"], contrib * 3)


def test_design_too_big_for_prototype_rejected():
    sim, cards, _ = make_cards(spec=ACEII_PROTOTYPE)
    big = Design("too-big", [BucketSortCore(64)])

    def proc():
        yield from cards[0].configure(big)

    p = sim.process(proc())
    with pytest.raises(FPGAResourceError):
        sim.run(until=p)


def test_scatter_validation():
    sim, cards, _ = make_cards()
    with pytest.raises(OffloadError):
        cards[0].post_scatter(1, [])
    # post_scatter checks every block's size before queueing anything.
    blocks = [SendBlock(MacAddress(1), 100), SendBlock(MacAddress(2), 0)]
    with pytest.raises(OffloadError, match="send block of 0 bytes"):
        cards[0].post_scatter(1, blocks)
    assert cards[0]._scatter_q.total_puts == 0


#: ``_chunks_of`` pinned: for each (card, packet size), one row per
#: window (16 KiB, 64 KiB) of the chunk size it picks for blocks of
#: 1,000 / 40,000 / 131,072 / 1,000,000 bytes.  Every chunk but the
#: last has that size, so the row fixes the whole chunk list.  At 1024 B
#: packets the tolerance rule and window/4 decide alone; at 256 B
#: packets under 64 KiB, the static rule (``choose_quantum``) sets the
#: 1,000,000 B block's chunks.
CHUNK_PINS = {
    ("ideal", 256): (
        (1000, 4096, 4096, 4096),
        (1000, 16128, 16128, 16384),
    ),
    ("ideal", 1024): (
        (1000, 4096, 4096, 4096),
        (1000, 16384, 16384, 16384),
    ),
    ("ideal", 4096): (
        (1000, 4096, 4096, 4096),
        (1000, 16384, 16384, 16384),
    ),
    ("proto", 256): (
        (1000, 4096, 4096, 4096),
        (1000, 16384, 16384, 16384),
    ),
    ("proto", 1024): (
        (1000, 4096, 4096, 4096),
        (1000, 16384, 16384, 16384),
    ),
    ("proto", 4096): (
        (1000, 4096, 4096, 4096),
        (1000, 16384, 16384, 16384),
    ),
}


@pytest.mark.parametrize("card_name, packet", sorted(CHUNK_PINS))
def test_chunk_sizes_are_pinned(card_name, packet):
    from repro.protocols import INICProtoConfig

    spec = {"ideal": IDEAL_INIC, "proto": ACEII_PROTOTYPE}[card_name]
    spec = replace(spec, proto=INICProtoConfig(packet_size=packet))
    card = INICCard(Simulator(), MacAddress(0), spec=spec)
    rows = CHUNK_PINS[card_name, packet]
    for window, row in zip((16 * 1024, 64 * 1024), rows):
        for nbytes, chunk in zip((1000, 40_000, 131_072, 1_000_000), row):
            sizes = card._chunks_of(nbytes, window)
            assert sum(sizes) == nbytes
            assert sizes[:-1] == [chunk] * (len(sizes) - 1)
            assert sizes[0] == chunk


def test_compute_mode_runs_kernel():
    data = np.arange(1024, dtype=np.float64)

    def run(spec):
        sim, cards, cpus = make_cards(n=1, spec=spec)
        results = {}

        def proc():
            yield from cards[0].configure(Design("calc", [FIFOCore()], mode="compute"))
            t0 = sim.now
            ev = cards[0].compute(
                data, lambda d: d * 2, in_bytes=data.nbytes, out_bytes=data.nbytes
            )
            results["out"] = yield ev
            results["elapsed"] = sim.now - t0

        sim.process(proc())
        sim.run()
        assert np.array_equal(results["out"], data * 2)
        assert cards[0].stats.completion_interrupts == 1
        return results["elapsed"]

    # The on-card pass is memory-bound: it runs at the card RAM's
    # bandwidth when that is slower than every configured core.
    slow, slower = (
        replace(IDEAL_INIC, memory_bandwidth=IDEAL_INIC.memory_bandwidth / k)
        for k in (4, 8)
    )
    gap = data.nbytes / slower.memory_bandwidth - data.nbytes / slow.memory_bandwidth
    assert run(slower) - run(slow) == pytest.approx(gap, rel=1e-9)


# --- card-train fast path: stat identity ----------------------------------------------
def _fastpath_card_ledger(app):
    """Run a p=16 fat-tree fast-path FFT or sort; return (makespan,
    events, trains_fast, per-card rows).  A row is every ``CardStats``
    field in name order, then the host bus's bytes, transfer count, busy
    time and busy-until clock."""
    import hashlib

    from repro.api import Experiment
    from repro.apps.fft import inic_fft2d
    from repro.apps.sort import inic_sort

    session = (
        Experiment()
        .nodes(16)
        .card(ACEII_PROTOTYPE)
        .fabric("fattree")
        .fastpath(True)
        .build()
    )
    g = np.random.default_rng(5)
    if app == "fft":
        matrix = g.standard_normal((256, 256)) + 1j * g.standard_normal((256, 256))
        _, result = inic_fft2d(session.cluster, session.manager, matrix)
    else:
        keys = g.integers(0, 2**32, size=1 << 18, dtype=np.uint32)
        _, result = inic_sort(session.cluster, session.manager, keys)
    rows = []
    for rank in range(16):
        card = session.manager.driver(rank).card
        stats = vars(card.stats)
        bus = card.host_tx
        rows.append(
            tuple(stats[name] for name in sorted(stats))
            + (
                bus.stats.bytes_transferred,
                bus.stats.transfer_count,
                bus.stats.busy_time,
                bus._busy_until,
            )
        )
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    return (
        result.makespan,
        session.cluster.sim.event_count,
        session.cluster.switch.trains_fast,
        rows,
        digest,
    )


#: card 0's row and the sha256 of all 16 rows' ``repr``, recorded with
#: the per-call ``_track_mem``/``_account_rx`` card datapath.  Field order:
#: bytes_delivered, bytes_egressed, bytes_ingested, bytes_received,
#: completion_interrupts, frames_received, frames_sent, nacks_received,
#: nacks_sent, peak_memory_bytes, retransmits, retransmitted_bytes,
#: transfer_aborts, then bus bytes, transfers, busy time, busy-until.
FASTPATH_LEDGERS = {
    "fft": (
        0.005194755436720322,
        1344,
        32,
        (
            131072.0, 122880.0, 131072.0, 122880.0, 2, 120, 120, 0, 0,
            61440.0, 0, 0.0, 0,
            507904.0, 94, 0.004554973618538324, 0.1251947554367203,
        ),
        "70acd01c98518ef3ee5c8fc3657812158bc41d9fa0e15d18127babbc85e85674",
    ),
    "sort": (
        0.003155607967914309,
        1010,
        32,
        (
            66972.0, 62324.0, 66560.0, 62736.0, 2, 83, 81, 0, 0,
            61712.0, 0, 0.0, 0,
            258592.0, 95, 0.0023332415329768274, 0.12239645112299452,
        ),
        "5db6cfcde764e10d68c4196e8a9199ce6719a90f9e8d52f0dadf029d87b29b26",
    ),
}


@pytest.mark.parametrize("app", ["fft", "sort"])
def test_fastpath_card_stats_are_pinned(app):
    """The card-train fast path keeps every card counter, the memory
    peak and the host bus clock float-identical to the per-call
    datapath it fused (locals instead of ``_track_mem`` and
    ``_account_rx`` calls)."""
    makespan, events, trains, rows, digest = _fastpath_card_ledger(app)
    want = FASTPATH_LEDGERS[app]
    assert (makespan, events, trains) == want[:3]
    assert trains > 0
    assert rows[0] == want[3]
    assert digest == want[4]


# --- card-train fast path: the column train and its frames ----------------------------
def _record_fast_path(monkeypatch):
    """Record every wire train and every self-addressed fast-path chunk."""
    from repro.net.topology import _AggregateUplink

    wire, local = [], []
    send_train = _AggregateUplink.send_train
    local_deliver = INICCard._fast_local_deliver

    def record_train(uplink, train):
        wire.append(train)
        return send_train(uplink, train)

    def record_local(card, train, i):
        local.append((train, i))
        return local_deliver(card, train, i)

    monkeypatch.setattr(_AggregateUplink, "send_train", record_train)
    monkeypatch.setattr(INICCard, "_fast_local_deliver", record_local)
    return wire, local


def test_train_frames_match_per_chunk_frames(monkeypatch):
    """``Train.frame(i)`` is, field for field, the ``Frame`` the fast
    path built per chunk before its trains went columnar — first,
    middle and last chunks of each block on the wire train, and the
    self-addressed chunks on the local train — so the ``_pending_rx``
    backlog sees the same frames.  A gather posted after
    its frames arrived replays that backlog to the same result."""
    from repro.net import Frame, Train, wire_bytes
    from repro.net.topology import build_fattree

    wire_trains, local_chunks = _record_fast_path(monkeypatch)
    sim = Simulator()
    spec = ACEII_PROTOTYPE
    cards = [INICCard(sim, MacAddress(i), spec=spec, name=f"inic{i}") for i in range(4)]
    build_fattree(sim, [(card.address, card) for card in cards])
    for card in cards:
        card.fastpath = True
    nbytes = 40_000  # several chunks per block, the last one short
    blocks = [
        SendBlock(MacAddress(dst), nbytes, np.full(8, float(dst)))
        for dst in (1, 2, 3, 0)
    ]
    tag = 0x51
    gathers = {
        rank: cards[rank].post_gather(tag, TransferPlan(sim, {0: nbytes}))
        for rank in (0, 2, 3)
    }
    cards[0].post_scatter(tag, blocks, train=True)
    sim.run()
    assert len(wire_trains) == 1
    train = wire_trains[0]
    assert isinstance(train, Train)
    assert tag in cards[1]._pending_rx  # arrived before its gather

    proto = spec.proto
    sizes = cards[0]._chunks_of(nbytes, spec.flow_window)
    assert len(sizes) >= 3 and sizes[-1] < sizes[0]
    expected = []
    for block in blocks[:3]:
        for k, size in enumerate(sizes):
            last = k == len(sizes) - 1
            expected.append(
                Frame(
                    src=cards[0].address,
                    dst=block.dst,
                    payload_bytes=size,
                    headers=proto.headers,
                    frame_count=-(-size // proto.packet_size),
                    kind="inic",
                    payload=block.data if last else None,
                    meta={"op": tag, "last": last, "total": nbytes},
                )
            )
    local_expected = [
        Frame(
            src=cards[0].address,
            dst=cards[0].address,
            payload_bytes=size,
            headers=0,
            kind="inic-local",
            payload=blocks[3].data if k == len(sizes) - 1 else None,
            meta={
                "op": tag,
                "last": k == len(sizes) - 1,
                "total": nbytes,
            },
        )
        for k, size in enumerate(sizes)
    ]

    def fields(frame):
        return (
            frame.src, frame.dst, frame.payload_bytes, frame.headers,
            frame.frame_count, frame.kind, frame.seq, id(frame.payload),
            frame.meta, frame.wire_size,
        )

    n = len(sizes)
    assert len(train) == len(expected)
    for i in (0, n // 2, n - 1, n, len(expected) - 1):  # first, middle, last
        assert fields(train.frame(i)) == fields(expected[i])
        assert train.wire_size[i] == wire_bytes(
            train.payload_bytes[i], proto.headers, train.frame_count[i]
        )
    assert [fields(t.frame(i)) for t, i in local_chunks] == [
        fields(f) for f in local_expected
    ]

    late = cards[1].post_gather(tag, TransferPlan(sim, {0: nbytes}))
    sim.run()
    for rank, op in {**gathers, 1: late}.items():
        assert op.done.processed
        (payload,) = op.done.value[0]
        assert payload is blocks[rank - 1 if rank else 3].data


def test_fastpath_fallback_reasons_are_counted():
    """Each train scatter that cannot take the fast path is counted
    under the reason ``_fast_eligible`` gives."""
    from repro.net.topology import build_fattree

    def card_on(builder, spec=ACEII_PROTOTYPE, fastpath=True):
        sim = Simulator()
        cards = [INICCard(sim, MacAddress(i), spec=spec, name=f"c{i}") for i in range(2)]
        builder(sim, [(card.address, card) for card in cards])
        for card in cards:
            card.fastpath = fastpath
        return cards[0]

    def reason(card, blocks):
        return card._fast_eligible(ScatterOp(card.sim, 1, blocks, train=True))

    one = [SendBlock(MacAddress(1), 1000)]
    assert reason(card_on(build_fattree), one) is None
    assert reason(card_on(build_fattree, fastpath=False), one) == "fastpath_off"
    assert reason(card_on(build_fattree, spec=IDEAL_INIC), one) == "bus_geometry"
    recovering = replace(
        ACEII_PROTOTYPE, proto=replace(ACEII_PROTOTYPE.proto, max_retries=2)
    )
    assert reason(card_on(build_fattree, spec=recovering), one) == "retries"
    assert reason(card_on(build_star), one) == "no_train_wire"
    card = card_on(build_fattree)
    assert reason(card, [SendBlock(BROADCAST, 1000)]) == "broadcast"
    assert reason(card, [SendBlock(MacAddress(1), 1 << 20)]) == "window"
    card._outstanding[1] = 10.0
    assert reason(card, one) == "outstanding_credit"
    card._wire_out.fabric._faults_armed = True
    assert reason(card, one) == "fault_armed"

    card = card_on(build_fattree, fastpath=False)
    card.post_scatter(1, one, train=True)
    card.post_scatter(2, one)  # not a train: never a candidate
    card.sim.run()
    assert card.fastpath_fallbacks == {"fastpath_off": 1}


# --- card-train fast path: memoised chunk rows ------------------------------------------
def _rate_design(name, bytes_per_cycle):
    """A one-core design streaming ``bytes_per_cycle`` per fabric clock."""
    from repro.inic.cores import CoreSpec, StreamCore

    return Design(name, [StreamCore(CoreSpec(name, 10, 0, bytes_per_cycle))])


#: at the prototype's 50 MHz clock, 4 B/cycle outruns its 112.2 MB/s bus
#: (no datapath stall); 1 B/cycle is slower, so every chunk stalls
FAST_CORE, SLOW_CORE = 4.0, 1.0


def _fast_cards(n=2):
    from repro.net.topology import build_fattree

    sim = Simulator()
    cards = [
        INICCard(sim, MacAddress(i), spec=ACEII_PROTOTYPE, name=f"inic{i}")
        for i in range(n)
    ]
    build_fattree(sim, [(card.address, card) for card in cards])
    for card in cards:
        card.fastpath = True
    return sim, cards


def _card_ledger(card):
    """Every ``CardStats`` field, then the host bus's ledger and clock."""
    stats = vars(card.stats)
    bus = card.host_tx
    return tuple(stats[name] for name in sorted(stats)) + (
        bus.stats.bytes_transferred,
        bus.stats.transfer_count,
        bus.stats.busy_time,
        bus._busy_until,
    )


def test_a_slow_core_scatter_falls_back_under_stall():
    """A design whose slowest core is slower than the card bus stalls
    the datapath, which the fast path's closed form does not model: a
    train scatter under it takes the frame-level path, counted under
    ``stall``, and matches a card with the fast path off exactly."""
    nbytes = 40_000  # several chunks per block, the last one short

    def run(fastpath):
        sim, cards = _fast_cards()
        card = cards[0]
        card.fastpath = fastpath
        times = {}

        def timed(key, event):
            yield event
            times[key] = sim.now

        def scatter():
            yield from card.configure(_rate_design("slow", SLOW_CORE))
            for rank, c in enumerate(cards):
                op = c.post_gather(1, TransferPlan(sim, {0: nbytes}))
                sim.process(timed(rank, op.done))
            blocks = [SendBlock(MacAddress(dst), nbytes) for dst in (1, 0)]
            yield from timed("sent", card.post_scatter(1, blocks, train=True).sent)

        sim.process(scatter())
        sim.run()
        assert len(times) == 3
        return card.fastpath_fallbacks, times, _card_ledger(card)

    fallbacks, times, ledger = run(fastpath=True)
    assert fallbacks == {"stall": 1}
    assert run(fastpath=False) == ({"fastpath_off": 1}, times, ledger)


def _reference_scatter(card, blocks, window):
    """The fast path's arithmetic written out chunk by chunk, nothing
    memoised: (wire times, wire sizes, frame counts, local ready times,
    bus bytes, transfers, busy time, busy-until)."""
    from repro.net import wire_bytes

    bus = card.host_tx
    bw, arb = bus.bandwidth, bus.arbitration_latency
    proto = card.spec.proto
    busy = max(bus._busy_until, card.sim.now)
    times, wire, counts, local = [], [], [], []
    bus_bytes, n_xfers, busy_add = 0.0, 0, 0.0
    for block in blocks:
        for size in card._chunks_of(block.nbytes, window):
            d_xfer = arb + size / bw
            fin_i = busy + d_xfer
            busy = fin_i
            n_xfers += 1
            bus_bytes += size
            busy_add += d_xfer
            if block.dst == card.address:
                local.append(fin_i)
                continue
            fin_e = fin_i + d_xfer
            busy = fin_e
            n_xfers += 1
            bus_bytes += size
            busy_add += d_xfer
            n_packets = -(-size // proto.packet_size)
            times.append(fin_e)
            wire.append(wire_bytes(size, proto.headers, n_packets))
            counts.append(n_packets)
    return times, wire, counts, local, bus_bytes, n_xfers, busy_add, busy


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 64 * 1024), min_size=1, max_size=4),
    own_size=st.integers(1, 64 * 1024),
    window=st.sampled_from([None, 4096, 10_000, 64 * 1024]),
)
def test_fast_path_rows_match_per_chunk_arithmetic(sizes, own_size, window):
    """Whatever the block sizes (multi-chunk blocks with a short last
    chunk included) and the flow window (``None``: the card's), a
    scatter under a design that keeps up with the bus (no datapath
    stall, :func:`test_a_slow_core_scatter_falls_back_under_stall`)
    through the memoised rows lays down the
    per-chunk arithmetic's wire train, self-addressed chunks and bus
    ledger bit for bit, and each row holds that arithmetic's values."""
    from repro.net import wire_bytes

    sim, cards = _fast_cards(3)
    card = cards[0]
    sim.process(card.configure(_rate_design("core", FAST_CORE)))
    sim.run()
    blocks = [SendBlock(MacAddress(1 + k % 2), n) for k, n in enumerate(sizes)]
    blocks.append(SendBlock(MacAddress(0), own_size))
    resolved = window or card.spec.flow_window
    want = _reference_scatter(card, blocks, resolved)

    wire, local = [], []
    card._wire_out = SimpleNamespace(send_train=wire.append)
    card._fast_local_deliver = lambda train, i: local.append((i, train.times[i]))
    op = ScatterOp(sim, 1, blocks, window, train=True)
    now = sim.now
    sent = []

    def waiter():
        yield op.sent
        sent.append(sim.now)

    sim.process(waiter())
    card._run_scatter_fast(op)
    sim.run()
    assert sent == [now + (max(want[0] + want[3]) - now)]
    bus = card.host_tx
    times = wire[0].times if wire else []
    got = (
        times,
        wire[0].wire_size if wire else [],
        wire[0].frame_count if wire else [],
        # self-addressed chunks, in chunk order
        [t for _, t in sorted(local)],
        bus.stats.bytes_transferred,
        bus.stats.transfer_count,
        bus.stats.busy_time,
        bus._busy_until,
    )
    assert got == want

    proto = card.spec.proto
    bw, arb = bus.bandwidth, bus.arbitration_latency
    for (nbytes, key_window), rows in card._row_cache.items():
        assert key_window == resolved
        chunks = card._chunks_of(nbytes, key_window)
        assert [row[0] for row in rows] == chunks
        for k, (size, d_xfer, last, n_packets, wire_size, total) in enumerate(rows):
            assert d_xfer == arb + size / bw
            assert last == (k == len(chunks) - 1)
            assert n_packets == -(-size // proto.packet_size)
            assert wire_size == wire_bytes(size, proto.headers, n_packets)
            assert total == nbytes


def test_card_bench_takes_the_fast_path_and_checks_its_panels():
    """``python -m repro.inic --bench``: every sender's scatter is one
    fast-path train, every stage is timed, and the panels it assembles
    are checked (a wrong one raises)."""
    from repro.inic.__main__ import STAGES, bench_alltoall, main

    row = bench_alltoall(4)
    assert row["p"] == 4 and row["blocks"] == 16
    assert row["trains_fast"] == 4
    from repro.net import topology
    assert row["compiled"] is (topology._cadmit is not None)
    from repro.inic import card as card_module
    assert row["card_compiled"] is (card_module._ctrain is not None)
    assert row["events"] > 0
    assert set(row["us_per_block"]) == set(STAGES) | {"other"}
    assert all(row["us_per_block"][stage] > 0 for stage in STAGES)
    assert main(["--bench", "--p", "2", "--json"]) == 0
