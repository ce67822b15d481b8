"""Unit tests for the DMA engine and PCI bus factories."""

import pytest

from repro.errors import DMAError
from repro.hw import PCI_32_33_RATE, DMAEngine, pci_32_33
from repro.hw.pci import DEFAULT_ARBITRATION
from repro.sim import FCFSBus, FairShareBus, Simulator


def test_dma_transfer_time_includes_setup():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=1e6, name="b")
    dma = DMAEngine(sim, bus, setup_cost=0.5, burst_size=10**9)

    def proc():
        yield from dma.transfer(1e6)
        return sim.now

    p = sim.process(proc())
    assert sim.run(until=p) == pytest.approx(1.5)


@pytest.mark.parametrize(
    "t0, setup, nbytes", [(0.1, 2e-6, 1460), (0.0, 0.0, 84), (3.7e-3, 5e-6, 9000)]
)
def test_dma_on_fair_share_bus_completes_bit_for_bit(t0, setup, nbytes):
    """On a fair-share bus the set-up cost rides along as the transfer's
    lead time; an uncontended transfer started at ``t0`` completes at
    exactly ``((t0 + setup) + arbitration) + n / bandwidth``, the float
    the sleep-then-transfer sequence gave."""
    sim = Simulator()
    bus = pci_32_33(sim)
    dma = DMAEngine(sim, bus, setup_cost=setup)

    def proc():
        yield sim.timeout(t0)
        yield from dma.transfer(nbytes)
        return sim.now

    p = sim.process(proc())
    finish = sim.run(until=p)
    assert finish == ((t0 + setup) + bus.arbitration_latency) + nbytes / bus.bandwidth
    assert bus.stats.bytes_transferred == pytest.approx(nbytes)
    assert dma.transfers == 1


def test_dma_chunks_into_bursts():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=1e6)
    dma = DMAEngine(sim, bus, setup_cost=0.0, burst_size=1000)

    def proc():
        yield from dma.transfer(10_000)

    sim.process(proc())
    sim.run()
    assert bus.stats.transfer_count == 10
    assert bus.stats.bytes_transferred == pytest.approx(10_000)


def test_dma_efficiency_improves_with_size():
    """The 64 KiB receive threshold of Eq. (15) exists because DMA
    efficiency is poor for small transfers."""
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=112e6)  # ~85% of PCI 132 MB/s
    dma = DMAEngine(sim, bus, setup_cost=20e-6)
    small = dma.efficiency(1024)
    big = dma.efficiency(64 * 1024)
    assert small < 0.35
    assert big > 0.95
    assert dma.efficiency(1024) < dma.efficiency(4096) < dma.efficiency(65536)


def test_dma_statistics():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=1e6)
    dma = DMAEngine(sim, bus, setup_cost=0.0)

    def proc():
        yield from dma.transfer(5000)
        yield from dma.transfer(3000)

    sim.process(proc())
    sim.run()
    assert dma.transfers == 2
    assert dma.bytes_moved == pytest.approx(8000)


def test_dma_rejects_bad_args():
    sim = Simulator()
    bus = FCFSBus(sim, bandwidth=1e6)
    with pytest.raises(DMAError):
        DMAEngine(sim, bus, setup_cost=-1)
    with pytest.raises(DMAError):
        DMAEngine(sim, bus, burst_size=0)
    dma = DMAEngine(sim, bus)
    with pytest.raises(DMAError):
        list(dma.transfer(0))


def test_pci_rates_ordering():
    sim = Simulator()
    bus = pci_32_33(sim)
    # The derated system bus is slower than its raw burst rate.
    assert bus.bandwidth < PCI_32_33_RATE
    # 85% derating of the 132 MB/s raw rate, bit for bit.
    assert PCI_32_33_RATE == 132e6
    assert bus.bandwidth == PCI_32_33_RATE * 0.85


def test_system_pci_default_is_fair_share():
    sim = Simulator()
    bus = pci_32_33(sim)
    assert isinstance(bus, FairShareBus)
    assert bus.arbitration_latency == DEFAULT_ARBITRATION
