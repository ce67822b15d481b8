"""Unit tests for the DMA engine and PCI bus factories."""

import pytest

from repro.errors import DMAError
from repro.hw import PCI_32_33_RATE, DMAEngine, pci_32_33
from repro.hw.pci import DEFAULT_ARBITRATION
from repro.sim import FairShareBus, Simulator


def test_dma_transfer_time_includes_setup():
    sim = Simulator()
    bus = pci_32_33(sim)
    dma = DMAEngine(sim, bus, setup_cost=0.5)

    def proc():
        yield dma.start(1e6)
        return sim.now

    p = sim.process(proc())
    assert sim.run(until=p) == pytest.approx(
        0.5 + bus.arbitration_latency + 1e6 / bus.bandwidth
    )


@pytest.mark.parametrize(
    "t0, setup, nbytes", [(0.1, 2e-6, 1460), (0.0, 0.0, 84), (3.7e-3, 5e-6, 9000)]
)
def test_dma_on_fair_share_bus_completes_bit_for_bit(t0, setup, nbytes):
    """On a fair-share bus the set-up cost rides along as the transfer's
    lead time; an uncontended transfer started at ``t0`` completes at
    exactly ``((t0 + setup) + arbitration) + n / bandwidth``, the float
    a sleep-then-transfer sequence gives."""
    sim = Simulator()
    bus = pci_32_33(sim)
    dma = DMAEngine(sim, bus, setup_cost=setup)

    def proc():
        yield sim.timeout(t0)
        yield dma.start(nbytes)
        return sim.now

    p = sim.process(proc())
    finish = sim.run(until=p)
    assert finish == ((t0 + setup) + bus.arbitration_latency) + nbytes / bus.bandwidth
    assert bus.stats.bytes_transferred == pytest.approx(nbytes)
    assert dma.transfers == 1


def test_dma_efficiency_improves_with_size():
    """The 64 KiB receive threshold of Eq. (15) exists because DMA
    efficiency is poor for small transfers: the simulated rate of one
    uncontended transfer, as a share of the bus bandwidth."""
    sim = Simulator()
    bus = pci_32_33(sim)
    dma = DMAEngine(sim, bus, setup_cost=20e-6)
    effs = []
    for nbytes in (1024, 4096, 64 * 1024):
        t0 = sim.now
        sim.run(until=dma.start(nbytes))
        effs.append(nbytes / (sim.now - t0) / bus.bandwidth)
    small, mid, big = effs
    assert small < 0.35
    assert big > 0.95
    assert small < mid < big


def test_dma_statistics():
    sim = Simulator()
    bus = pci_32_33(sim)
    dma = DMAEngine(sim, bus, setup_cost=0.0)

    def proc():
        yield dma.start(5000)
        yield dma.start(3000)

    sim.process(proc())
    sim.run()
    assert dma.transfers == 2
    assert dma.bytes_moved == pytest.approx(8000)


def test_dma_rejects_bad_args():
    sim = Simulator()
    bus = pci_32_33(sim)
    with pytest.raises(DMAError):
        DMAEngine(sim, bus, setup_cost=-1)
    dma = DMAEngine(sim, bus)
    with pytest.raises(DMAError):
        dma.start(0)


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
