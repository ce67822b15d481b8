"""Unit tests for the standard NIC model."""

import pytest

from repro.hw import CPU, CacheLevel, CoalescePolicy, MemoryHierarchy
from repro.net import Frame, GIGABIT_ETHERNET, MacAddress, StandardNIC, build_star
from repro.sim import FairShareBus, Simulator


def make_cpu(sim):
    mh = MemoryHierarchy(
        [
            CacheLevel("L1", 64 * 1024, 8e9, 4e9),
            CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9),
        ]
    )
    return CPU(sim, mh, interrupt_cost=10e-6)


def make_pair(sim, coalesce=CoalescePolicy()):
    """Two NICs behind a gigabit switch; returns (nics, cpus, addrs)."""
    nics, cpus, addrs = [], [], []
    for i in range(2):
        cpu = make_cpu(sim)
        bus = FairShareBus(sim, bandwidth=112e6, name=f"pci{i}")
        nic = StandardNIC(
            sim,
            MacAddress(i),
            host_bus=bus,
            cpu=cpu,
            coalesce=coalesce,
            name=f"nic{i}",
        )
        nics.append(nic)
        cpus.append(cpu)
        addrs.append(MacAddress(i))
    build_star(sim, list(zip(addrs, nics)))
    return nics, cpus, addrs


def test_frame_travels_nic_to_nic():
    sim = Simulator()
    nics, _, addrs = make_pair(sim)
    got = []
    nics[1].bind_receiver(lambda f: got.append((f, sim.now)))
    nics[0].transmit_nowait(Frame(addrs[0], addrs[1], payload_bytes=1000))
    sim.run()
    assert len(got) == 1
    assert got[0][0].payload_bytes == 1000
    assert got[0][1] > 0


def test_payload_crosses_host_pci_both_sides():
    sim = Simulator()
    nics, _, addrs = make_pair(sim)
    nics[1].bind_receiver(lambda f: None)
    nics[0].transmit_nowait(Frame(addrs[0], addrs[1], payload_bytes=4000))
    sim.run()
    assert nics[0]._tx_dma.bytes_moved == pytest.approx(4000)
    assert nics[1]._rx_dma.bytes_moved == pytest.approx(4000)


def test_interrupt_per_frame_without_coalescing():
    sim = Simulator()
    nics, cpus, addrs = make_pair(sim)
    nics[1].bind_receiver(lambda f: None)
    for _ in range(10):
        nics[0].transmit_nowait(Frame(addrs[0], addrs[1], payload_bytes=1500))
    sim.run()
    assert nics[1].irq.interrupts_delivered == 10
    assert cpus[1].interrupt_time > 0


def test_coalescing_reduces_interrupts_for_bursts():
    sim = Simulator()
    nics, _, addrs = make_pair(
        sim, coalesce=CoalescePolicy(delay=100e-6, max_frames=8)
    )
    nics[1].bind_receiver(lambda f: None)
    for _ in range(32):
        nics[0].transmit_nowait(Frame(addrs[0], addrs[1], payload_bytes=1500))
    sim.run()
    assert nics[1].irq.interrupts_delivered < 32
    assert nics[1].irq.coalescing_ratio() > 2.0
    assert nics[1].stats.rx_frames == 32


def test_coalescing_delays_single_frame_delivery():
    """The slow-start poison: a lone frame waits out the coalescing timer."""
    delay = 200e-6
    times = {}
    for policy in ("imm", "coal"):
        sim = Simulator()
        coalesce = (
            CoalescePolicy()
            if policy == "imm"
            else CoalescePolicy(delay=delay, max_frames=64)
        )
        nics, _, addrs = make_pair(sim, coalesce=coalesce)
        got = []
        nics[1].bind_receiver(lambda f: got.append(sim.now))
        nics[0].transmit_nowait(Frame(addrs[0], addrs[1], payload_bytes=500))
        sim.run()
        times[policy] = got[0]
    assert times["coal"] - times["imm"] == pytest.approx(delay, rel=0.05)


def test_rx_ring_overflow_drops():
    sim = Simulator()
    cpu = make_cpu(sim)
    bus = FairShareBus(sim, bandwidth=1e3, name="slowpci")  # pathological PCI
    nic = StandardNIC(
        sim, MacAddress(0), host_bus=bus, cpu=cpu, rx_ring=4, name="tiny"
    )
    nic.bind_receiver(lambda f: None)
    for _ in range(10):
        nic.receive_frame(Frame(MacAddress(1), MacAddress(0), payload_bytes=1500))
    sim.run(until=0.1)
    assert nic.stats.rx_ring_drops > 0


def test_rx_ring_overflow_accounts_frame_trains():
    """Tail drops under CHUNK fidelity: a dropped train counts all of
    its physical frames and its full wire bytes."""
    sim = Simulator()
    cpu = make_cpu(sim)
    bus = FairShareBus(sim, bandwidth=1e3, name="slowpci")  # pathological PCI
    nic = StandardNIC(
        sim, MacAddress(0), host_bus=bus, cpu=cpu, rx_ring=2, name="tiny"
    )
    nic.bind_receiver(lambda f: None)
    frames = [
        Frame(MacAddress(1), MacAddress(0), payload_bytes=6000, frame_count=4)
        for _ in range(5)
    ]
    for f in frames:
        nic.receive_frame(f)
    sim.run(until=0.1)
    # Ring holds 2 trains; the other 3 tail-drop whole.
    assert nic.stats.rx_ring_drops == 3 * 4
    assert nic.stats.rx_ring_drop_bytes == pytest.approx(3 * frames[0].wire_size)


def test_tx_ring_backpressure_blocks_until_a_slot_frees():
    """``transmit`` returns ``None`` while the TX ring has room; the
    frame being DMA'd does not count against it, and a sender blocked on
    a full ring resumes on the returned event when the drain takes the
    next frame."""
    sim = Simulator()
    nics, _, addrs = make_pair(sim)
    nic = nics[0]
    nic._tx_dma.bus.bandwidth = 1e3  # pathological PCI: one DMA per second
    nics[1].bind_receiver(lambda f: None)
    nic_tx = nic._tx_ring
    nic_tx.capacity = 2
    returned = []

    def sender():
        for _ in range(5):
            slot = nic.transmit(Frame(addrs[0], addrs[1], payload_bytes=1000))
            if slot is not None:
                yield slot
            returned.append((sim.now, nic.stats.tx_frames))

    sim.process(sender())
    sim.run()
    assert [r[1] for r in returned] == [0, 0, 0, 1, 2]
    assert returned[0][0] == returned[2][0] == 0.0
    assert 0.0 < returned[3][0] < returned[4][0]
    assert nic.stats.tx_frames == 5


def test_quantum_frames_count_as_many():
    sim = Simulator()
    nics, _, addrs = make_pair(sim)
    nics[1].bind_receiver(lambda f: None)
    nics[0].transmit_nowait(
        Frame(addrs[0], addrs[1], payload_bytes=15000, frame_count=10)
    )
    sim.run()
    assert nics[1].stats.rx_frames == 10
    assert nics[1].irq.causes_raised == 10


def test_nic_stats_byte_accounting():
    sim = Simulator()
    nics, _, addrs = make_pair(sim)
    nics[1].bind_receiver(lambda f: None)
    f = Frame(addrs[0], addrs[1], payload_bytes=1000)
    nics[0].transmit_nowait(f)
    sim.run()
    assert nics[0].stats.tx_bytes == pytest.approx(f.wire_size)
    assert nics[1].stats.rx_bytes == pytest.approx(f.wire_size)
