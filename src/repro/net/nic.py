"""Standard (non-intelligent) NIC model.

This is Figure 1(a) of the paper: a dumb buffer between the host PCI
bus and the wire.  Everything that makes the baselines slow lives here:

* payloads cross the **host PCI bus** by DMA on both send and receive,
* every received frame raises an **interrupt cause**; the controller's
  coalescing policy (rx-usecs/rx-frames) batches them, adding latency to
  short messages,
* the delivered interrupt **steals host CPU time** (handler cost plus a
  per-frame charge) before frames reach the protocol stack.

The INIC (:mod:`repro.inic.card`) replaces this class on the datapath
and eliminates the per-frame interrupts and host protocol work.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Union

from ..errors import NetworkError
from ..hw.cpu import CPU
from ..hw.dma import DMAEngine
from ..hw.interrupts import CoalescePolicy, InterruptController, IMMEDIATE
from ..sim.bus import FCFSBus, FairShareBus
from ..sim.engine import Simulator
from ..sim.resources import Store
from .addresses import MacAddress
from .link import Wire
from .packet import Frame

__all__ = ["StandardNIC", "NICStats"]

Bus = Union[FCFSBus, FairShareBus]


class NICStats:
    def __init__(self) -> None:
        self.tx_frames = 0
        self.tx_bytes = 0.0
        self.rx_frames = 0
        self.rx_bytes = 0.0
        self.rx_ring_drops = 0
        self.rx_ring_drop_bytes = 0.0


class StandardNIC:
    """A conventional DMA + interrupt NIC.

    Parameters
    ----------
    sim, address:
        simulator and this station's address.
    host_bus:
        the node's system PCI bus (payloads DMA across it).
    cpu:
        host CPU charged for interrupt handling.
    coalesce:
        interrupt-mitigation policy for RX.
    tx_ring, rx_ring:
        descriptor ring depths (frames).
    irq_handler_cost / per_frame_handler_cost:
        CPU seconds stolen per delivered interrupt / per drained frame.
    """

    def __init__(
        self,
        sim: Simulator,
        address: MacAddress,
        host_bus: Bus,
        cpu: Optional[CPU] = None,
        coalesce: CoalescePolicy = IMMEDIATE,
        tx_ring: int = 256,
        rx_ring: int = 256,
        dma_setup_cost: float = 2e-6,
        irq_handler_cost: float = 8e-6,
        per_frame_handler_cost: float = 1.5e-6,
        name: str = "nic",
    ):
        self.sim = sim
        self.address = address
        self.cpu = cpu
        self.name = name
        self.stats = NICStats()
        self.irq_handler_cost = float(irq_handler_cost)
        self.per_frame_handler_cost = float(per_frame_handler_cost)

        self._wire_out: Optional[Wire] = None
        self._on_receive: Optional[Callable[[Frame], None]] = None

        self._tx_dma = DMAEngine(sim, host_bus, setup_cost=dma_setup_cost, name=f"{name}.txdma")
        self._rx_dma = DMAEngine(sim, host_bus, setup_cost=dma_setup_cost, name=f"{name}.rxdma")

        self._tx_ring: Store = Store(sim, capacity=tx_ring, name=f"{name}.txring")
        self._rx_ring: Store = Store(sim, capacity=rx_ring, name=f"{name}.rxring")
        self._ready: deque[Frame] = deque()
        #: physical frames (``frame_count`` summed) waiting in ``_ready``
        self._ready_frames = 0

        self.irq = InterruptController(
            sim, policy=coalesce, handler=self._irq_handler, name=f"{name}.irq"
        )

        sim.process(self._tx_loop(), name=f"{name}.tx")
        sim.process(self._rx_loop(), name=f"{name}.rx")

    # -- wiring -----------------------------------------------------------------
    def attach_wire(self, wire: Wire) -> None:
        """Attach the NIC->switch wire this NIC transmits on."""
        if self._wire_out is not None:
            raise NetworkError(f"{self.name}: wire already attached")
        self._wire_out = wire

    def bind_receiver(self, callback: Callable[[Frame], None]) -> None:
        """Install the protocol-stack upcall for received frames."""
        self._on_receive = callback

    @property
    def wire_bandwidth(self) -> float:
        """Bytes/s of the attached TX wire (0.0 before attachment).

        Protocol stacks use this to convert the batching timing
        tolerance (:mod:`repro.net.batching`) into a frames-per-event
        quantum.
        """
        return 0.0 if self._wire_out is None else self._wire_out.bandwidth

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this NIC's instruments under ``prefix``.

        Covers the NIC's own frame counters, both DMA engines
        (``.txdma``/``.rxdma``), and the attached uplink wire.  The
        interrupt controller registers separately under the node's
        ``irq`` prefix (see :mod:`repro.telemetry.instruments`).
        """
        stats = self.stats
        registry.counter(f"{prefix}.tx_frames", lambda: stats.tx_frames)
        registry.counter(f"{prefix}.tx_bytes", lambda: stats.tx_bytes, unit="B")
        registry.counter(f"{prefix}.rx_frames", lambda: stats.rx_frames)
        registry.counter(f"{prefix}.rx_bytes", lambda: stats.rx_bytes, unit="B")
        registry.counter(f"{prefix}.drops", lambda: stats.rx_ring_drops)
        self._tx_dma.register_telemetry(registry, f"{prefix}.txdma")
        self._rx_dma.register_telemetry(registry, f"{prefix}.rxdma")
        if self._wire_out is not None:
            self._wire_out.register_telemetry(registry, f"{prefix}.uplink")

    # -- host-side API -------------------------------------------------------------
    def transmit(self, frame: Frame):
        """Generator: hand ``frame`` to the NIC (blocks if TX ring full).

        Use as ``yield from nic.transmit(frame)``; returns once the frame
        sits in the ring (actual wire departure is asynchronous).
        """
        yield self._tx_ring.put(frame)

    def transmit_nowait(self, frame: Frame) -> None:
        """Ring-put without backpressure (tests, simple senders)."""
        self._tx_ring.put(frame)

    # -- datapath processes -----------------------------------------------------------
    def _tx_loop(self):
        ring = self._tx_ring
        while True:
            # Parked on the next get, this loop must not keep the last
            # frame (and its payload) alive.
            frame = None
            frame = yield ring.get()
            if self._wire_out is None:
                raise NetworkError(f"{self.name}: transmit with no wire attached")
            # Payload crosses the host PCI bus by DMA before hitting the wire.
            if frame.payload_bytes > 0:
                yield from self._tx_dma.transfer(frame.payload_bytes)
            self._wire_out.send(frame)
            self.stats.tx_frames += frame.frame_count
            self.stats.tx_bytes += frame.wire_size

    def receive_frame(self, frame: Frame) -> None:
        """Wire-side entry point (FrameSink interface)."""
        if self._rx_ring.is_full:
            self.stats.rx_ring_drops += frame.frame_count
            self.stats.rx_ring_drop_bytes += frame.wire_size
            return
        self._rx_ring.put(frame)

    def _rx_loop(self):
        while True:
            frame = None  # drop the last frame while parked
            frame = yield self._rx_ring.get()
            # DMA the payload into host memory, then raise an interrupt
            # cause per physical frame (coalescing may batch them).
            if frame.payload_bytes > 0:
                yield from self._rx_dma.transfer(frame.payload_bytes)
            self.stats.rx_frames += frame.frame_count
            self.stats.rx_bytes += frame.wire_size
            self._ready.append(frame)
            self._ready_frames += frame.frame_count
            self.irq.raise_irq(frame.frame_count)

    def _irq_handler(self, n_causes: int) -> None:
        frames, self._ready = self._ready, deque()
        n_frames, self._ready_frames = self._ready_frames, 0
        if self.cpu is not None:
            self.cpu.steal(self.irq_handler_cost + n_frames * self.per_frame_handler_cost)
        if self._on_receive is not None:
            for f in frames:
                self._on_receive(f)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StandardNIC {self.name!r} addr={self.address}>"
