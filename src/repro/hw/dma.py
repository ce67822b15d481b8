"""DMA engine model.

Models the descriptor-driven DMA engines that move data between host
memory and I/O cards across a PCI bus.  The effect that matters to the
paper is the **per-descriptor setup cost**: each DMA transaction pays a
fixed overhead, so small transfers are inefficient.  This is why the
receiving INIC waits for a 64 KiB bucket threshold before transferring
to the host ("the minimum size transferred from the card to host memory
to ensure efficiency of the DMA operation", Eq. 15), and why "the limits
on the efficiency of the DMA engines" is named as the eventual INIC
scaling limit (Section 4.1).

The engine runs on a fair-share bus, which models the interleaving of
independent traffic continuously, so each transfer is one bus flow.
"""

from __future__ import annotations

from ..errors import DMAError
from ..sim.bus import FairShareBus
from ..sim.engine import Event, Simulator

__all__ = ["DMAEngine"]


class DMAEngine:
    """A DMA channel bound to a fair-share bus."""

    def __init__(
        self,
        sim: Simulator,
        bus: FairShareBus,
        setup_cost: float = 5e-6,
        name: str = "dma",
    ):
        if setup_cost < 0:
            raise DMAError("negative DMA setup cost")
        self.sim = sim
        self.bus = bus
        self.setup_cost = float(setup_cost)
        self.name = name
        # -- statistics ----------------------------------------------------
        self.transfers = 0
        self.bytes_moved = 0.0

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this DMA channel's instruments under ``prefix``."""
        registry.counter(f"{prefix}.transfers", lambda: self.transfers)
        registry.counter(f"{prefix}.bytes", lambda: self.bytes_moved, unit="B")

    def start(self, nbytes: float) -> Event:
        """Issue a transfer of ``nbytes``; returns its completion event.

        A caller (the NIC's rings) hangs its own callback on the event
        instead of running a process.  The whole payload goes as one bus
        transfer, and the setup cost rides along as the transfer's lead
        time: the flow joins the bus at ``(now + setup_cost) +
        arbitration`` from one schedule entry, and the event returned is
        the bus's ``done``, whose first own callback counts the
        transfer.
        """
        if nbytes <= 0:
            raise DMAError(f"DMA transfer of {nbytes} bytes")
        done = self.bus.transfer(float(nbytes), lead=self.setup_cost)
        done.callbacks.append(self._count)
        return done

    def _count(self, done: Event) -> None:
        self.transfers += 1
        self.bytes_moved += done._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DMAEngine {self.name!r} on {self.bus.name!r}>"
