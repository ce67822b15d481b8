"""The node's system PCI bus.

The prototype's weaknesses are explicitly bus-shaped (Section 5):
"a single bus on the card for all data traffic, a 32-bit 33 MHz PCI
bus" — versus the ideal single-chip INIC which assumes "the system PCI
bus would be sufficient (64-bit 66 MHz or, in the future, PCI-X)".

Every node's host system bus is a 32-bit 33 MHz PCI bus: 132 MB/s raw,
decimal MB/s as PCI is conventionally quoted.  Real PCI achieves
roughly 80-90% of raw on long bursts, so :func:`pci_32_33` derates it
to 85% (the paper's own models use "a conservative 80%-90% of measured
results", Section 4).  The card's buses are built in
:mod:`repro.inic.card` from the card spec's rates, with the same
:data:`DEFAULT_ARBITRATION`.

Telemetry: the bus inherits ``register_telemetry`` from
:class:`~repro.sim.bus.FairShareBus`; the cluster instrumenter names
the node's system bus ``node{r}.pci``.  On INIC nodes the datapath
crosses the *card's* host-side bus instead, so ``node{r}.pci`` reads
that bus (see :mod:`repro.telemetry.instruments`).
"""

from __future__ import annotations

from ..sim.bus import FairShareBus
from ..sim.engine import Simulator
from ..units import mb_per_s

__all__ = ["PCI_32_33_RATE", "pci_32_33"]

#: raw burst rate in bytes/s
PCI_32_33_RATE: float = mb_per_s(132.0)

#: typical PCI arbitration/latency per transaction (address phase, turnaround)
DEFAULT_ARBITRATION: float = 0.3e-6


def pci_32_33(sim: Simulator, name: str = "pci32/33") -> FairShareBus:
    """The node's 32-bit 33 MHz system PCI bus (fair-share), 85% of raw."""
    return FairShareBus(
        sim,
        bandwidth=PCI_32_33_RATE * 0.85,
        arbitration_latency=DEFAULT_ARBITRATION,
        name=name,
    )
