"""DMA engine model.

Models the descriptor-driven DMA engines that move data between host
memory and I/O cards across a PCI bus.  Two effects matter to the paper:

* **Per-descriptor setup cost** — each DMA transaction pays a fixed
  overhead, so small transfers are inefficient.  This is why the
  receiving INIC waits for a 64 KiB bucket threshold before transferring
  to the host ("the minimum size transferred from the card to host
  memory to ensure efficiency of the DMA operation", Eq. 15), and why
  "the limits on the efficiency of the DMA engines" is named as the
  eventual INIC scaling limit (Section 4.1).

* **Chunking** — long transfers are broken into burst-sized bus
  transactions, which is what lets independent traffic interleave on a
  fair-share bus and lets downstream consumers pipeline with the DMA.
"""

from __future__ import annotations

from typing import Union

from ..errors import DMAError
from ..sim.bus import FCFSBus, FairShareBus
from ..sim.engine import Event, Simulator

__all__ = ["DMAEngine"]

Bus = Union[FCFSBus, FairShareBus]


class DMAEngine:
    """A DMA channel bound to a bus."""

    def __init__(
        self,
        sim: Simulator,
        bus: Bus,
        setup_cost: float = 5e-6,
        burst_size: int = 4096,
        name: str = "dma",
    ):
        if setup_cost < 0:
            raise DMAError("negative DMA setup cost")
        if burst_size < 1:
            raise DMAError("burst size must be >= 1 byte")
        self.sim = sim
        self.bus = bus
        self.setup_cost = float(setup_cost)
        self.burst_size = int(burst_size)
        self.name = name
        self._fair = isinstance(bus, FairShareBus)
        # -- statistics ----------------------------------------------------
        self.transfers = 0
        self.bytes_moved = 0.0

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this DMA channel's instruments under ``prefix``."""
        registry.counter(f"{prefix}.transfers", lambda: self.transfers)
        registry.counter(f"{prefix}.bytes", lambda: self.bytes_moved, unit="B")

    def start(self, nbytes: float) -> Event:
        """Issue a transfer of ``nbytes``; returns its completion event.

        The non-generator entry: a caller (the NIC's rings) hangs its own
        callback on the event instead of running a process.  On a
        fair-share bus the sharing is modelled continuously by the bus
        itself, so bursting would only multiply simulation events
        without changing any completion time — the whole payload goes as
        one transfer, and the setup cost rides along as the transfer's
        lead time: the flow joins the bus at ``(now + setup_cost) +
        arbitration`` from one schedule entry, and the event returned is
        the bus's ``done``, whose first own callback counts the
        transfer.  On a serialized (FCFS) bus the burst sequence of
        :meth:`transfer` runs as a process, and the process is the
        event.
        """
        if nbytes <= 0:
            raise DMAError(f"DMA transfer of {nbytes} bytes")
        if not self._fair:
            return self.sim.process(self.transfer(nbytes), name=self.name)
        done = self.bus.transfer(float(nbytes), lead=self.setup_cost)
        done.callbacks.append(self._count)
        return done

    def _count(self, done: Event) -> None:
        self.transfers += 1
        self.bytes_moved += done._value

    def transfer(self, nbytes: float):
        """Generator: move ``nbytes``; use as ``yield from dma.transfer(n)``.

        Pays one setup cost, then streams the payload over the bus.
        Returns the byte count.  On a fair-share bus this is
        ``yield dma.start(n)`` (one transfer with the set-up as lead
        time, see :meth:`start`).  On a serialized (FCFS) bus the engine
        sleeps the setup cost, then breaks the payload into
        ``burst_size`` transactions so independent traffic can
        interleave between bursts.
        """
        if nbytes <= 0:
            raise DMAError(f"DMA transfer of {nbytes} bytes")
        if self._fair:
            yield self.start(nbytes)
            return nbytes
        if self.setup_cost > 0:
            yield self.sim.sleep(self.setup_cost)
        remaining = float(nbytes)
        while remaining > 0:
            burst = min(remaining, float(self.burst_size))
            yield self.bus.transfer(burst)
            remaining -= burst
        self.transfers += 1
        self.bytes_moved += nbytes
        return nbytes

    def effective_rate(self, nbytes: float) -> float:
        """Setup-amortized throughput for a transfer of ``nbytes``.

        Useful for analytical models; the simulated rate converges to
        this for uncontended buses.
        """
        if nbytes <= 0:
            raise DMAError(f"DMA transfer of {nbytes} bytes")
        stream_time = nbytes / self.bus.bandwidth
        return nbytes / (self.setup_cost + stream_time)

    def efficiency(self, nbytes: float) -> float:
        """Fraction of raw bus bandwidth achieved at this transfer size."""
        return self.effective_rate(nbytes) / self.bus.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DMAEngine {self.name!r} on {self.bus.name!r}>"
