"""Output-queued store-and-forward Ethernet switch.

The paper's INIC protocol argument hinges on switch buffering: "there
should be no packet loss as the total amount of data put into the
network never exceeds the total size of the network buffers (combined
NIC and switch buffers)" (Section 4.1).  So the switch models finite
per-output-port byte buffers with tail drop, and exposes drop/occupancy
statistics the tests use to verify that claim for the INIC protocol —
and to produce losses for mis-tuned configurations.

Each output port: a byte-accounted FIFO drained at line rate onto the
attached wire.  Frames become eligible for transmission a fixed lookup
latency after ingress.

Hot path
--------
Ports are event-driven state machines, not generator processes: a frame
through an idle port costs two pooled timed callbacks (transmit start at
lookup-latency, transmit done at serialization end) plus the wire's
delivery — no process spawn per busy period and no separate
forwarding-latency event.  The port forwards each queued frame as it
arrived: frame trains are formed at the source (a ``frame_count``-weighted
frame from TCP's chunk quantum or the INIC's chunking, see
:mod:`repro.net.batching`), never merged in the fabric.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..errors import SwitchError
from ..sim.engine import Simulator
from .addresses import MacAddress
from .link import Wire
from .packet import Frame

__all__ = ["Switch", "PortStats"]


class PortStats:
    """Per-output-port counters."""

    def __init__(self) -> None:
        self.frames_forwarded = 0
        self.frames_dropped = 0
        self.bytes_forwarded = 0.0
        self.bytes_dropped = 0.0
        self.max_queue_bytes = 0.0


class _PortIngress:
    """Adapter: terminates the device->switch wire for one port."""

    __slots__ = ("switch", "port")

    def __init__(self, switch: "Switch", port: int):
        self.switch = switch
        self.port = port

    def receive_frame(self, frame: Frame) -> None:
        self.switch._ingress(frame, self.port)


class _OutputPort:
    """One output port: byte-bounded FIFO + event-driven drain."""

    __slots__ = ("switch", "index", "wire", "queue", "queued_bytes", "stats", "_busy")

    def __init__(self, switch: "Switch", index: int):
        self.switch = switch
        self.index = index
        self.wire: Optional[Wire] = None
        #: (frame, ready_time) — ready_time is ingress + lookup latency
        self.queue: deque[tuple[Frame, float]] = deque()
        self.queued_bytes = 0.0
        self.stats = PortStats()
        self._busy = False

    def enqueue(self, frame: Frame, ready_time: float) -> None:
        sw = self.switch
        if self.queued_bytes + frame.wire_size > sw.buffer_bytes_per_port:
            self.stats.frames_dropped += frame.frame_count
            self.stats.bytes_dropped += frame.wire_size
            return
        self.queue.append((frame, ready_time))
        self.queued_bytes += frame.wire_size
        if self.queued_bytes > self.stats.max_queue_bytes:
            self.stats.max_queue_bytes = self.queued_bytes
        if not self._busy:
            self._busy = True
            self._arm(ready_time)

    def _arm(self, ready_time: float) -> None:
        sim = self.switch.sim
        delay = ready_time - sim.now
        if delay > 0:
            sim.call_after(delay, self._start_tx)
        else:
            self._start_tx()

    def _start_tx(self) -> None:
        sim = self.switch.sim
        if self.wire is None:
            raise SwitchError(f"switch port {self.index} has no wire attached")
        frame, _ready = self.queue.popleft()
        wire_size = frame.wire_size
        self.wire.send(frame)
        sim.call_after(
            wire_size / self.wire.bandwidth, self._tx_done, wire_size, frame.frame_count
        )

    def _tx_done(self, wire_size: int, frame_count: int) -> None:
        # Buffer space is freed once the frame has left the port.
        self.queued_bytes -= wire_size
        self.stats.frames_forwarded += frame_count
        self.stats.bytes_forwarded += wire_size
        if self.queue:
            self._arm(self.queue[0][1])
        else:
            self._busy = False


class Switch:
    """A non-blocking crossbar with output queueing."""

    def __init__(
        self,
        sim: Simulator,
        n_ports: int,
        buffer_bytes_per_port: float = 512 * 1024,
        forwarding_latency: float = 4e-6,
        name: str = "switch",
    ):
        if n_ports < 1:
            raise SwitchError("switch needs at least one port")
        if buffer_bytes_per_port <= 0:
            raise SwitchError("switch buffers must be > 0 bytes")
        if forwarding_latency < 0:
            raise SwitchError("negative forwarding latency")
        self.sim = sim
        self.name = name
        self.n_ports = n_ports
        self.buffer_bytes_per_port = float(buffer_bytes_per_port)
        self.forwarding_latency = float(forwarding_latency)
        self._outputs = [_OutputPort(self, i) for i in range(n_ports)]
        self._table: dict[MacAddress, int] = {}
        self._frames_in = 0

    # -- wiring -----------------------------------------------------------------
    def ingress_sink(self, port: int) -> _PortIngress:
        """The sink to attach to the device->switch wire of ``port``."""
        self._check_port(port)
        return _PortIngress(self, port)

    def attach_output(self, port: int, wire: Wire) -> None:
        """Attach the switch->device wire of ``port``."""
        self._check_port(port)
        if self._outputs[port].wire is not None:
            raise SwitchError(f"port {port} output already attached")
        self._outputs[port].wire = wire

    def learn(self, address: MacAddress, port: int) -> None:
        """Install a static forwarding entry (the fabric builder does this)."""
        self._check_port(port)
        self._table[address] = port

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise SwitchError(f"port {port} out of range 0..{self.n_ports - 1}")

    # -- data path ---------------------------------------------------------------
    def _ingress(self, frame: Frame, in_port: int) -> None:
        # The lookup latency is folded into per-frame readiness instead of
        # a separate scheduled callback: the frame queues now and becomes
        # eligible to transmit ``forwarding_latency`` later.
        ready = self.sim.now + self.forwarding_latency
        if frame.dst.is_broadcast:
            for port, out in enumerate(self._outputs):
                if port != in_port and out.wire is not None:
                    self._frames_in += frame.frame_count
                    out.enqueue(frame.clone_for(frame.dst), ready)
            return
        port = self._table.get(frame.dst)
        if port is None:
            raise SwitchError(f"no forwarding entry for {frame.dst}")
        self._frames_in += frame.frame_count
        self._outputs[port].enqueue(frame, ready)

    # -- statistics ---------------------------------------------------------------
    def register_telemetry(self, registry, prefix: str) -> None:
        """Register switch-wide and per-output-port instruments.

        Names follow ``{prefix}.port{p}.*`` for ports (the ISSUE's
        ``switch.port2.drops`` scheme); each port's downlink wire
        registers under ``{prefix}.port{p}.wire``.
        """
        registry.counter(f"{prefix}.drops", self.total_dropped)
        registry.counter(f"{prefix}.forwarded", self.total_forwarded)
        for out in self._outputs:
            p = f"{prefix}.port{out.index}"
            stats = out.stats
            registry.counter(f"{p}.frames", lambda s=stats: s.frames_forwarded)
            registry.counter(f"{p}.bytes", lambda s=stats: s.bytes_forwarded, unit="B")
            registry.counter(f"{p}.drops", lambda s=stats: s.frames_dropped)
            registry.counter(
                f"{p}.dropped_bytes", lambda s=stats: s.bytes_dropped, unit="B"
            )
            registry.gauge(
                f"{p}.max_queue_bytes", lambda s=stats: s.max_queue_bytes, unit="B"
            )
            registry.gauge(f"{p}.queued_bytes", lambda o=out: o.queued_bytes, unit="B")
            if out.wire is not None:
                out.wire.register_telemetry(registry, f"{p}.wire")

    def port_stats(self, port: int) -> PortStats:
        self._check_port(port)
        return self._outputs[port].stats

    def total_dropped(self) -> int:
        return sum(o.stats.frames_dropped for o in self._outputs)

    def total_dropped_bytes(self) -> float:
        return sum(o.stats.bytes_dropped for o in self._outputs)

    def total_forwarded(self) -> int:
        return sum(o.stats.frames_forwarded for o in self._outputs)

    def conservation_counters(self) -> dict:
        """Frame-conservation ledger: every frame that entered the
        crossbar is forwarded, tail-dropped, or still queued at the
        snapshot (the chaos harness asserts the ledger balances)."""
        return {
            "frames_in": self._frames_in,
            "frames_delivered": self.total_forwarded(),
            "frames_dropped": self.total_dropped(),
            "partition_drops": 0,
            "frames_queued": sum(
                f.frame_count for o in self._outputs for f, _ in o.queue
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name!r} {self.n_ports} ports>"
