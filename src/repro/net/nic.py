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
from typing import Callable, Optional

from ..errors import NetworkError
from ..hw.cpu import CPU
from ..hw.dma import DMAEngine
from ..hw.interrupts import CoalescePolicy, InterruptController, IMMEDIATE
from ..sim.bus import FairShareBus
from ..sim.engine import URGENT, Event, Simulator
from .addresses import MacAddress
from .link import Wire
from .packet import Frame

__all__ = ["StandardNIC", "NICStats"]


class NICStats:
    def __init__(self) -> None:
        self.tx_frames = 0
        self.tx_bytes = 0.0
        self.rx_frames = 0
        self.rx_bytes = 0.0
        self.rx_ring_drops = 0
        self.rx_ring_drop_bytes = 0.0


class _Ring:
    """A descriptor ring drained by a callback state machine.

    The DMA side of a NIC ring, without a process: a frame that reaches
    an idle ring is handed over by one pooled ``call_after(0.0, ...)``
    entry (where a parked getter's event fired), each payload crosses
    the host bus by ``DMAEngine.start`` with the drain step hung on the
    bus's ``done``, and frames without payload go on in the same step.
    ``deliver(frame)`` runs once the frame has crossed.

    Until the NIC's first event fires (:meth:`start`) nothing drains:
    frames queue, up to ``capacity``, exactly as they queued in front
    of a process that had not started yet.  ``frames`` holds the queued
    frames only — the one being handed over or DMA'd is outside it, so
    it does not count against ``capacity``.
    """

    __slots__ = ("sim", "capacity", "dma", "deliver", "frames", "putters", "frame", "idle")

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        dma: DMAEngine,
        deliver: Callable[[Frame], None],
    ):
        if capacity < 1:
            raise NetworkError(f"ring capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.dma = dma
        self.deliver = deliver
        self.frames: deque[Frame] = deque()
        #: ``(frame, event or None)`` waiting for room, FIFO
        self.putters: deque[tuple[Frame, Optional[Event]]] = deque()
        #: the frame being handed over or DMA'd
        self.frame: Optional[Frame] = None
        #: the drain waits for a frame
        self.idle = False

    @property
    def is_full(self) -> bool:
        return len(self.frames) >= self.capacity

    def put(self, frame: Frame, waiter: Optional[Event] = None) -> None:
        """Queue ``frame``; a full ring keeps it in line for the next free
        slot, and succeeds ``waiter`` (if any) once it is in."""
        if len(self.frames) >= self.capacity:
            self.putters.append((frame, waiter))
        elif self.idle:
            self.idle = False
            self.frame = frame
            self.sim.call_after(0.0, self._run)
        else:
            self.frames.append(frame)

    def start(self) -> None:
        """The NIC's first event: begin draining."""
        if self._pull():
            self._run()

    def _pull(self) -> bool:
        """Take the next queued frame (admitting a blocked putter into
        the room it leaves); go idle if there is none."""
        frames = self.frames
        if not frames:
            self.idle = True
            return False
        self.frame = frames.popleft()
        putters = self.putters
        while putters and len(frames) < self.capacity:
            frame, ev = putters.popleft()
            frames.append(frame)
            if ev is not None:
                ev.succeed()
        return True

    def _run(self) -> None:
        """Drain until a frame waits on its DMA or the ring is empty."""
        while True:
            frame = self.frame
            if frame.payload_bytes > 0:
                self.dma.start(frame.payload_bytes).callbacks.append(self._dma_done)
                return
            self.frame = None
            self.deliver(frame)
            if not self._pull():
                return

    def _dma_done(self, _done: Event) -> None:
        frame, self.frame = self.frame, None
        self.deliver(frame)
        if self._pull():
            self._run()


class StandardNIC:
    """A conventional DMA + interrupt NIC.

    Parameters
    ----------
    sim, address:
        simulator and this station's address.
    host_bus:
        the node's fair-share system PCI bus (payloads DMA across it).
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
        host_bus: FairShareBus,
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

        self._tx_ring = _Ring(sim, tx_ring, self._tx_dma, self._tx_deliver)
        self._rx_ring = _Ring(sim, rx_ring, self._rx_dma, self._rx_deliver)
        self._ready: deque[Frame] = deque()
        #: physical frames (``frame_count`` summed) waiting in ``_ready``
        self._ready_frames = 0

        self.irq = InterruptController(
            sim, policy=coalesce, handler=self._irq_handler, name=f"{name}.irq"
        )

        # The NIC's first event opens both rings; until it fires, frames
        # only queue.
        start = sim.event(name=f"{name}.start")
        start.callbacks.append(self._start)
        start.succeed(priority=URGENT)

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
        ring = self._tx_ring
        if ring.is_full:
            ev = self.sim.event(name=f"{self.name}.txring.put")
            ring.put(frame, ev)
            yield ev
        else:
            ring.put(frame)

    def transmit_nowait(self, frame: Frame) -> None:
        """Ring-put without backpressure (tests, simple senders)."""
        self._tx_ring.put(frame)

    # -- datapath -----------------------------------------------------------------
    def _start(self, _ev: Event) -> None:
        self._tx_ring.start()
        self._rx_ring.start()

    def _tx_deliver(self, frame: Frame) -> None:
        """A TX frame's payload has crossed the host bus: onto the wire."""
        if self._wire_out is None:
            raise NetworkError(f"{self.name}: transmit with no wire attached")
        self._wire_out.send(frame)
        self.stats.tx_frames += frame.frame_count
        self.stats.tx_bytes += frame.wire_size

    def receive_frame(self, frame: Frame) -> None:
        """Wire-side entry point (FrameSink interface)."""
        ring = self._rx_ring
        if ring.is_full:
            self.stats.rx_ring_drops += frame.frame_count
            self.stats.rx_ring_drop_bytes += frame.wire_size
            return
        ring.put(frame)

    def _rx_deliver(self, frame: Frame) -> None:
        """An RX frame is in host memory: raise an interrupt cause per
        physical frame (coalescing may batch them)."""
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
