"""The INIC card: datapath, ops, and the ideal/prototype variants.

This is Figure 1(b) made executable.  A card is a station on the
Ethernet fabric (like a :class:`~repro.net.nic.StandardNIC`) whose
datapath contains the configured FPGA design.  Hosts interact through
descriptor posts (free — "starting a send is handled by hardware that
sits idle if no send is in progress", Section 3.2.2) and receive a
**single completion interrupt per operation** ("Initiation of the
transfer of data to the host memory may require a single interrupt per
transpose", Section 4.1 footnote).

Two datapath geometries:

* **Ideal INIC** (Section 4's analysis): dedicated host path at
  80 MiB/s and network path at 90 MiB/s — the paper's Eqs. (6)-(9)
  rates — fully pipelined.
* **ACEII prototype** (Sections 5-6): one shared 132 MB/s card bus
  carries host DMA *and* MAC traffic, so every payload byte crosses it
  twice per direction; plus a denser-design-limiting FPGA.

Operations are all-to-all-shaped primitives (scatter with per-block
payloads, gather against a :class:`~repro.protocols.inicproto.TransferPlan`)
from which the applications build transposes and sort redistributions,
plus reduce/broadcast extensions and a compute-accelerator mode.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional
from weakref import WeakKeyDictionary

from ..errors import ConfigurationError, OffloadError, TransferAborted
from ..hw.cpu import CPU
from ..hw.pci import DEFAULT_ARBITRATION
from ..net.addresses import BROADCAST, MacAddress
from ..net.batching import adaptive_quantum, choose_quantum
from ..net.link import Wire
from ..net.packet import (
    ETHERNET_OVERHEAD,
    MIN_FRAME_PAYLOAD,
    Frame,
    Train,
    wire_bytes,
)
from ..protocols.inicproto import INICProtoConfig, TransferPlan
from ..sim.bus import FCFSBus, FairShareBus
from ..sim.engine import Event, Simulator
from ..sim.resources import Store
from ..units import KiB, mb_per_s, mib_per_s
from .bitstream import Design
from .fpga import FPGADevice, FPGAFabric, VIRTEX_1000, XILINX_4085XLA

try:  # optional compiled train loops (python setup.py build_ext --inplace)
    from . import _ctrain
except ImportError:  # no compiler / wheel built without the extension
    _ctrain = None

#: True when the card-train fast path's scatter and receive loops run
#: compiled (``repro/inic/_ctrain.c``), False on the Python reference.
compiled = _ctrain is not None

__all__ = [
    "CardSpec",
    "IDEAL_INIC",
    "ACEII_PROTOTYPE",
    "SendBlock",
    "ScatterOp",
    "GatherOp",
    "INICCard",
]


@dataclass(frozen=True)
class CardSpec:
    """Physical parameters of an INIC card."""

    name: str
    devices: tuple[FPGADevice, ...]
    #: bytes/s of the card RAM, the rate of a memory-bound pass in
    #: COMPUTE mode.  It is why count sort stays on the host: "cache
    #: memory bandwidth on a commodity processor is much higher than the
    #: comparable memory bandwidth for an INIC" (Section 3.2.2).  The
    #: RAM's size (32 MiB on the ideal single-chip INIC, 8 MiB of
    #: "limited memory attached to the FPGAs" on the ACEII prototype,
    #: Section 5) bounds no modelled transfer, so it is not a field.
    memory_bandwidth: float
    shared_bus: bool  # True: one bus for host DMA + MAC traffic
    host_rate: float  # bytes/s host<->card (dedicated or bus raw)
    net_rate: float  # bytes/s card<->network
    dma_threshold: int = 64 * KiB  # Eq. (15): receive->host granule
    completion_irq_cost: float = 10e-6
    #: per-destination in-flight byte window (Section 4.1's no-loss
    #: property: never put more into the fabric than the buffers hold).
    #: Credits return as tiny frames — the protocol's "minimal
    #: acknowledgement information".
    flow_window: int = 64 * KiB
    proto: INICProtoConfig = field(default_factory=INICProtoConfig)

    def __post_init__(self) -> None:
        if self.memory_bandwidth <= 0:
            raise ConfigurationError(f"{self.name}: bad memory bandwidth")
        if self.host_rate <= 0 or self.net_rate <= 0:
            raise ConfigurationError(f"{self.name}: bad path rates")
        if self.dma_threshold < 1:
            raise ConfigurationError(f"{self.name}: bad DMA threshold")


#: the chunk and row memos of each simulator's cards, one pair per
#: card spec (:attr:`INICCard._row_cache`); keyed weakly on the
#: simulator, so a run's memos go with it
_SPEC_MEMOS: WeakKeyDictionary[Simulator, dict[CardSpec, tuple[dict, dict]]] = (
    WeakKeyDictionary()
)

#: static cap on packets per chunk (:func:`~repro.net.batching.choose_quantum`)
QUANTUM_CAP = 64

#: Section 4's next-generation single-chip INIC: dedicated pipelined
#: paths at the measured-derated 80/90 MiB/s of Eqs. (6)-(9).
IDEAL_INIC = CardSpec(
    name="ideal-inic",
    devices=(VIRTEX_1000,),
    memory_bandwidth=mb_per_s(400),
    shared_bus=False,
    host_rate=mib_per_s(80),
    net_rate=mib_per_s(90),
)

#: Sections 5-6's ACEII prototype: everything over one 132 MB/s bus
#: (85% efficient), one app-usable XC4085XLA, limited memory.
ACEII_PROTOTYPE = CardSpec(
    name="aceii-prototype",
    devices=(XILINX_4085XLA,),
    memory_bandwidth=mb_per_s(200),
    shared_bus=True,
    host_rate=mb_per_s(132) * 0.85,
    net_rate=mb_per_s(132) * 0.85,
)


@dataclass(slots=True)
class SendBlock:
    """One destination's share of a scatter operation.

    ``data`` is the functional payload *after* the datapath transform
    (the application applies the design's core, mirroring the hardware
    doing it inline); ``nbytes`` is its logical size.  An all-to-all
    posts p of these per rank, so the class has slots, not a
    ``__dict__``, and :meth:`INICCard.post_scatter` checks the sizes
    in one pass rather than a ``__post_init__`` per block.
    """

    dst: MacAddress
    nbytes: int
    data: Any = None


class ScatterOp:
    """A posted scatter: streams blocks host->card->network."""

    def __init__(
        self,
        sim: Simulator,
        tag: int,
        blocks: list[SendBlock],
        window_bytes: Optional[int] = None,
        train: bool = False,
    ):
        self.tag = tag
        self.blocks = blocks
        self.window_bytes = window_bytes  # per-destination flow window
        #: exchange-phase marker: the poster vouches that this scatter is
        #: one sender's slice of a bulk all-to-all, making it a candidate
        #: for the flow-clock fast path (when the card enables it)
        self.train = train
        self.sent: Event = sim.event(name=f"scatter#{tag}.sent")


#: a gather's functional step: ``assemble(sources, payloads)`` gets the
#: stored payloads sorted by source address value (see
#: :meth:`GatherOp.by_source`) and returns the gather's result
Assemble = Callable[[list[int], list], Any]


class GatherOp:
    """A posted gather: accounts arrivals against a plan, DMAs to host."""

    def __init__(
        self,
        sim: Simulator,
        tag: int,
        plan: TransferPlan,
        assemble: Optional[Assemble] = None,
        reduce_core=None,
    ):
        self.tag = tag
        self.plan = plan
        self.assemble = assemble
        self.reduce_core = reduce_core
        self.done: Event = sim.event(name=f"gather#{tag}.done")
        # Stored payloads as two arrival-order columns (source address
        # value, payload): two list slots per payload instead of a list
        # per source.  ``by_source`` and ``payloads`` order them on
        # demand; the card's train receive appends to them inline.
        self._sources: list[int] = []
        self._items: list = []
        self.accumulator = None
        self.delivered_bytes = 0
        self.pending_delivery = 0.0
        self.last_seen_received = -1
        self.stalled_polls = 0
        # -- loss recovery (active only when the card's protocol config
        #    enables retries) ------------------------------------------------
        self.retries = 0
        self.dedupe_payloads = False
        self._payload_seen: set[int] = set()

    def store_payload(self, src: MacAddress, payload: Any) -> None:
        if payload is None:
            return
        if self.dedupe_payloads:
            # A retransmitted final packet racing its late original must
            # not fold a contribution twice.
            if src.value in self._payload_seen:
                return
            self._payload_seen.add(src.value)
        if self.reduce_core is not None:
            self.accumulator = self.reduce_core.apply(
                payload, accumulator=self.accumulator
            )
        else:
            self._sources.append(src.value)
            self._items.append(payload)

    def by_source(self) -> tuple[list[int], list]:
        """The stored payloads as ``(sources, payloads)``: two parallel
        lists sorted by source address value, each source's payloads in
        arrival order (the sort is stable).  ``result()`` hands them to
        ``assemble``; each call builds fresh lists."""
        sources = self._sources
        items = self._items
        order = sorted(range(len(sources)), key=sources.__getitem__)
        return [sources[i] for i in order], [items[i] for i in order]

    @property
    def payloads(self) -> dict[int, list]:
        """Stored payloads by source address value, each source's in
        arrival order, sources in order of their first arrival: the
        result of a gather posted without ``assemble``.

        Read-only: each read builds a fresh dict from the arrival
        columns, so editing it changes nothing stored.
        """
        grouped: dict[int, list] = {}
        for src, payload in zip(self._sources, self._items):
            items = grouped.get(src)
            if items is None:
                grouped[src] = [payload]
            else:
                items.append(payload)
        return grouped

    def payload_missing(self, peer: int) -> bool:
        """True if ``peer``'s functional payload has not been stored yet
        (its ``last``-marked packet was lost) — the NACK asks for it."""
        if self.dedupe_payloads:
            return peer not in self._payload_seen
        return peer not in self._sources

    def result(self) -> Any:
        if self.reduce_core is not None:
            return self.accumulator
        if self.assemble is not None:
            return self.assemble(*self.by_source())
        return self.payloads


class CardStats:
    def __init__(self) -> None:
        self.bytes_ingested = 0.0  # host -> card
        self.bytes_egressed = 0.0  # card -> network
        self.bytes_received = 0.0  # network -> card
        self.bytes_delivered = 0.0  # card -> host
        self.frames_sent = 0
        self.frames_received = 0
        self.completion_interrupts = 0
        self.peak_memory_bytes = 0.0
        # -- loss recovery (nonzero only with faults + retries enabled) --
        self.nacks_sent = 0
        self.nacks_received = 0
        self.retransmits = 0
        self.retransmitted_bytes = 0.0
        self.transfer_aborts = 0


class INICCard:
    """A reconfigurable intelligent NIC on the cluster fabric."""

    #: simulated seconds of zero progress after which a gather fails
    STALL_TIMEOUT = 10.0

    def __init__(
        self,
        sim: Simulator,
        address: MacAddress,
        spec: CardSpec = IDEAL_INIC,
        cpu: Optional[CPU] = None,
        name: str = "inic",
    ):
        self.sim = sim
        self.address = address
        self.spec = spec
        self.cpu = cpu
        self.name = name
        self.stats = CardStats()

        self.fabric = FPGAFabric(sim, list(spec.devices), name=f"{name}.fpga")
        if spec.shared_bus:
            # Section 6: "a single 132 MB/s bus used to access both the
            # Gigabit Ethernet and host memory" — every crossing contends.
            bus = FCFSBus(
                sim,
                bandwidth=spec.host_rate,
                arbitration_latency=DEFAULT_ARBITRATION,
                name=f"{name}.bus",
            )
            self.host_tx = self.host_rx = self.net_tx = self.net_rx = bus
        else:
            # Ideal single-chip INIC: independent DMA engines per
            # direction, each at the measured-derated Eq. (6)-(9) rates.
            self.host_tx = FairShareBus(
                sim, spec.host_rate, DEFAULT_ARBITRATION, name=f"{name}.host-tx"
            )
            self.host_rx = FairShareBus(
                sim, spec.host_rate, DEFAULT_ARBITRATION, name=f"{name}.host-rx"
            )
            self.net_tx = FairShareBus(
                sim, spec.net_rate, DEFAULT_ARBITRATION, name=f"{name}.net-tx"
            )
            self.net_rx = FairShareBus(
                sim, spec.net_rate, DEFAULT_ARBITRATION, name=f"{name}.net-rx"
            )

        self.design: Optional[Design] = None
        #: datapath_rate cache: min core rate of the configured design.
        #: Keyed on design identity — recomputed only when the design
        #: changes, not per chunk (the per-chunk min-over-cores scan was
        #: a measurable cost at 256+ nodes).
        self._rate_design: Optional[Design] = None
        self._design_min_rate: float = float("inf")
        #: chunk sizes (:meth:`_chunks_of`) and the fast path's per-chunk
        #: constants (:meth:`_fast_rows`: one row ``(size, bus time,
        #: last, packets, wire bytes, nbytes)`` per chunk), per (nbytes,
        #: window).  Both depend only on the spec, so every card of this
        #: simulator with an equal spec shares the two memos.
        memos = _SPEC_MEMOS.setdefault(sim, {})
        self._chunk_cache, self._row_cache = memos.setdefault(spec, ({}, {}))
        self._wire_out: Optional[Wire] = None
        #: opt-in for the exchange-phase bulk fast path (set by the
        #: cluster builder from ``ClusterSpec.fastpath``); eligibility
        #: is still checked per operation (:meth:`_fast_eligible`)
        self.fastpath = False
        #: train scatters that took the slow path, by the reason
        #: :meth:`_fast_eligible` gave (kept apart from :class:`CardStats`)
        self.fastpath_fallbacks: Counter[str] = Counter()

        self._scatter_q: Store = Store(sim, name=f"{name}.scatters")
        self._egress_q: Store = Store(sim, capacity=8, name=f"{name}.egress")
        self._rx_q: Store = Store(sim, name=f"{name}.rx")
        self._gathers: dict[int, GatherOp] = {}
        self._pending_rx: dict[int, deque[Frame]] = {}
        self._mem_in_use = 0.0
        #: per-destination unacknowledged bytes (flow control)
        self._outstanding: dict[int, float] = {}
        self._credit_wakeups: dict[int, Event] = {}
        #: (tag, dst) -> (block, window) retained to serve NACK-driven
        #: retransmits; populated only when ``proto.max_retries > 0``.
        #: Never pruned: the sender never learns that the receiver's
        #: gather finished (the protocol has no completion message), so
        #: every posted block and its payload live as long as the card.
        self._sent_blocks: dict[tuple[int, int], tuple[SendBlock, Optional[int]]] = {}

        sim.process(self._ingest_loop(), name=f"{name}.ingest")
        sim.process(self._egress_loop(), name=f"{name}.egress")
        sim.process(self._rx_loop(), name=f"{name}.rxloop")

    # -- configuration --------------------------------------------------------------
    def configure(self, design: Design):
        """Generator: load ``design`` onto the fabric (fit check + time)."""
        yield from self.fabric.configure(design, design.clbs, design.ram_kbits)
        self.design = design
        return design

    def require_core(self, core_name: str):
        if self.design is None:
            raise ConfigurationError(f"{self.name}: no design configured")
        return self.design.core(core_name)

    def datapath_rate(self, path_rate: float) -> float:
        """Effective stream rate: the slower of the bus path and the
        configured design's slowest core."""
        design = self.design
        if design is None:
            return path_rate
        if design is not self._rate_design:
            clock = self.fabric.clock_hz
            self._design_min_rate = min(
                (core.rate(clock) for core in design.cores),
                default=float("inf"),
            )
            self._rate_design = design
        min_rate = self._design_min_rate
        return path_rate if path_rate < min_rate else min_rate

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this card's instruments under ``prefix``.

        Covers the datapath counters, the card's bus(es) — one shared
        ``{prefix}.bus`` on the prototype, four per-direction buses on
        the ideal card — the FPGA fabric, and the uplink wire.
        """
        stats = self.stats
        registry.counter(f"{prefix}.bytes_ingested", lambda: stats.bytes_ingested, unit="B")
        registry.counter(f"{prefix}.bytes_egressed", lambda: stats.bytes_egressed, unit="B")
        registry.counter(f"{prefix}.bytes_received", lambda: stats.bytes_received, unit="B")
        registry.counter(f"{prefix}.bytes_delivered", lambda: stats.bytes_delivered, unit="B")
        registry.counter(f"{prefix}.frames_sent", lambda: stats.frames_sent)
        registry.counter(f"{prefix}.frames_received", lambda: stats.frames_received)
        registry.counter(
            f"{prefix}.completion_interrupts", lambda: stats.completion_interrupts
        )
        registry.gauge(
            f"{prefix}.peak_memory_bytes", lambda: stats.peak_memory_bytes, unit="B"
        )
        registry.counter(f"{prefix}.nacks_sent", lambda: stats.nacks_sent)
        registry.counter(f"{prefix}.retransmits", lambda: stats.retransmits)
        registry.counter(f"{prefix}.transfer_aborts", lambda: stats.transfer_aborts)
        if self.host_tx is self.net_rx:
            self.host_tx.register_telemetry(registry, f"{prefix}.bus")
        else:
            self.host_tx.register_telemetry(registry, f"{prefix}.host-tx")
            self.host_rx.register_telemetry(registry, f"{prefix}.host-rx")
            self.net_tx.register_telemetry(registry, f"{prefix}.net-tx")
            self.net_rx.register_telemetry(registry, f"{prefix}.net-rx")
        self.fabric.register_telemetry(registry, f"{prefix}.fpga")
        if self._wire_out is not None:
            self._wire_out.register_telemetry(registry, f"{prefix}.uplink")

    # -- fabric station interface -----------------------------------------------------
    def attach_wire(self, wire: Wire) -> None:
        if self._wire_out is not None:
            raise ConfigurationError(f"{self.name}: wire already attached")
        self._wire_out = wire

    def receive_frame(self, frame: Frame) -> None:
        if frame.kind == "inic-credit":
            # Flow-control credit: free window toward that destination.
            dst = frame.src.value
            self._outstanding[dst] = max(
                0.0, self._outstanding.get(dst, 0.0) - frame.meta["credit"]
            )
            wake = self._credit_wakeups.pop(dst, None)
            if wake is not None:
                wake.succeed(None)
            return
        if frame.kind == "inic-nack":
            self._handle_nack(frame)
            return
        self._rx_q.put(frame)

    def _handle_nack(self, frame: Frame) -> None:
        """A receiver reports ``missing`` undelivered bytes for one of our
        scatter tags: resync the flow window (lost frames never returned
        credits) and re-issue the missing range from the retained block."""
        peer = frame.src.value
        tag = frame.meta["op"]
        missing = frame.meta["missing"]
        self.stats.nacks_received += 1
        self._outstanding[peer] = max(
            0.0, self._outstanding.get(peer, 0.0) - missing
        )
        wake = self._credit_wakeups.pop(peer, None)
        if wake is not None:
            wake.succeed(None)
        retained = self._sent_blocks.get((tag, peer))
        if retained is None:
            # Nothing to resend: we never scattered to this peer under
            # this tag (the plan was wrong) or retention is off.  The
            # receiver's retry budget bounds how long it keeps asking.
            return
        block, window = retained
        nbytes = min(missing, block.nbytes)
        if nbytes < 1:
            return
        data = block.data if frame.meta.get("need_payload") else None
        self.stats.retransmits += 1
        self.stats.retransmitted_bytes += nbytes
        retry = ScatterOp(
            self.sim, tag, [SendBlock(block.dst, nbytes, data)], window
        )
        self._scatter_q.put(retry)

    # -- operation posting ---------------------------------------------------------------
    def post_scatter(
        self,
        tag: int,
        blocks: list[SendBlock],
        window_bytes: Optional[int] = None,
        train: bool = False,
    ) -> ScatterOp:
        """Post a scatter descriptor (free for the host CPU).

        ``window_bytes`` overrides the card's per-destination flow
        window for this operation (incast-heavy collectives pass a
        smaller one so the fabric's no-loss invariant holds).
        ``train`` marks the scatter as one sender's slice of a bulk
        exchange — a flow-clock fast-path candidate.
        """
        if not blocks:
            raise OffloadError("scatter with no blocks")
        for block in blocks:
            if block.nbytes < 1:
                raise OffloadError(f"send block of {block.nbytes} bytes")
        op = ScatterOp(self.sim, tag, blocks, window_bytes, train=train)
        if self.spec.proto.max_retries > 0:
            # Retain each destination's block so a NACK can be served.
            # Recovery assumes one block per (tag, destination), which is
            # how every collective in this repo shapes its scatters.
            for block in blocks:
                self._sent_blocks[(tag, block.dst.value)] = (block, window_bytes)
        self._scatter_q.put(op)
        return op

    def post_gather(
        self,
        tag: int,
        plan: TransferPlan,
        assemble: Optional[Assemble] = None,
        reduce_core=None,
    ) -> GatherOp:
        """Post a gather descriptor for phase ``tag``.

        On completion the gather's ``done`` event carries
        ``assemble(sources, payloads)`` (:meth:`GatherOp.by_source`), the
        ``reduce_core`` accumulator, or without either the
        :attr:`GatherOp.payloads` map.
        """
        if tag in self._gathers:
            raise OffloadError(f"gather tag {tag} already active")
        op = GatherOp(self.sim, tag, plan, assemble, reduce_core)
        if self.spec.proto.max_retries > 0:
            # Recovery mode: a retransmission racing its late original may
            # over-deliver — clamp instead of treating it as a protocol
            # violation, and fold each peer's payload at most once.
            plan.tolerate_surplus = True
            op.dedupe_payloads = True
        self._gathers[tag] = op
        self.sim.process(self._gather_watch(op), name=f"{self.name}.gw{tag}")
        # Replay frames that arrived before the gather was posted.
        backlog = self._pending_rx.pop(tag, None)
        if backlog:
            for frame in backlog:
                self._account_rx(op, frame)
        return op

    def _park_early(self, tag: int, frame: Frame) -> None:
        """Keep ``frame`` for the gather ``tag`` that is not posted yet
        (:meth:`post_gather` replays it)."""
        backlog = self._pending_rx.get(tag)
        if backlog is None:
            backlog = self._pending_rx[tag] = deque()
        backlog.append(frame)

    # -- send datapath ------------------------------------------------------------------
    def _chunks_of(self, nbytes: int, window: int) -> list[int]:
        # Chunking is a pure function of (nbytes, window) for a given
        # card spec, and an alltoall posts p blocks per node drawn from a
        # handful of distinct sizes — memoize per spec.  Callers iterate
        # the list without mutating it.
        cached = self._chunk_cache.get((nbytes, window))
        if cached is not None:
            return cached
        proto = self.spec.proto
        pkt = proto.packet_size
        n_packets = -(-nbytes // pkt)
        q = choose_quantum(n_packets, QUANTUM_CAP)
        # Adaptive batching: grow the quantum to the largest packet train
        # whose serialization stays within the timing tolerance (the
        # window/4 cap below still preserves the credit pipeline).
        packet_time = wire_bytes(pkt, proto.headers) / self.spec.net_rate
        q = max(q, adaptive_quantum(n_packets, packet_time))
        # Keep several chunks in flight inside one window so the credit
        # round trip (which returns per chunk) never drains the pipeline:
        # chunk <= window/4.
        chunk = max(pkt, min(q * pkt, window // 4))
        sizes = []
        left = nbytes
        while left > 0:
            sizes.append(min(chunk, left))
            left -= sizes[-1]
        self._chunk_cache[(nbytes, window)] = sizes
        return sizes

    def _track_mem(self, delta: float) -> None:
        in_use = self._mem_in_use + delta
        self._mem_in_use = in_use
        if in_use > self.stats.peak_memory_bytes:
            self.stats.peak_memory_bytes = in_use

    def _ingest_loop(self):
        """host memory -> (transform cores) -> card memory, chunked."""
        ingest_rate_fn = lambda: self.datapath_rate(self.host_tx.bandwidth)
        while True:
            # Parked on the next get, this daemon loop must not keep the
            # last operation's blocks (and their payloads) alive.
            op = block = None
            op = yield self._scatter_q.get()
            if op.train:
                refusal = self._fast_eligible(op)
                if refusal is None:
                    self._run_scatter_fast(op)
                    continue
                self.fastpath_fallbacks[refusal] += 1
            window = op.window_bytes or self.spec.flow_window
            for block in op.blocks:
                sizes = self._chunks_of(block.nbytes, window)
                for i, size in enumerate(sizes):
                    yield self.host_tx.transfer(size)
                    # The datapath cores run inline; if the slowest core is
                    # slower than the bus, the stream stalls to its rate.
                    extra = size / ingest_rate_fn() - size / self.host_tx.bandwidth
                    if extra > 1e-12:
                        yield self.sim.timeout(extra)
                    self.stats.bytes_ingested += size
                    self._track_mem(size)
                    last = i == len(sizes) - 1
                    yield self._egress_q.put(
                        _EgressChunk(op, block, size, last)
                    )

    def _egress_loop(self):
        """card memory -> (packetize) -> MAC -> wire, chunked."""
        proto = self.spec.proto
        while True:
            chunk = op = block = frame = None  # drop the last payload while parked
            chunk = yield self._egress_q.get()
            op, block = chunk.op, chunk.block
            if block.dst == self.address:
                # Self-addressed block: loops back inside the card
                # (host->card->host), never touching the MAC.
                self._track_mem(-chunk.size)
                self._local_deliver(op, block, chunk)
                continue
            # Flow control: never exceed the per-destination window of
            # unacknowledged bytes (broadcast is exempt — one stream per
            # port, no incast).
            if not block.dst.is_broadcast:
                window = op.window_bytes or self.spec.flow_window
                dst = block.dst.value
                while self._outstanding.get(dst, 0.0) + chunk.size > window:
                    wake = self.sim.event(name=f"{self.name}.credit")
                    self._credit_wakeups[dst] = wake
                    yield wake
                self._outstanding[dst] = (
                    self._outstanding.get(dst, 0.0) + chunk.size
                )
            yield self.net_tx.transfer(chunk.size)
            self._track_mem(-chunk.size)
            if self._wire_out is None:
                raise OffloadError(f"{self.name}: egress with no wire attached")
            n_packets = -(-chunk.size // proto.packet_size)
            frame = Frame(
                src=self.address,
                dst=block.dst,
                payload_bytes=chunk.size,
                headers=proto.headers,
                frame_count=n_packets,
                kind="inic",
                payload=block.data if chunk.last else None,
                meta={"op": op.tag, "last": chunk.last, "total": block.nbytes},
            )
            self._wire_out.send(frame)
            self.stats.frames_sent += n_packets
            self.stats.bytes_egressed += chunk.size
            if chunk.last and block is op.blocks[-1]:
                op.sent.succeed(None)

    def _local_deliver(self, op: ScatterOp, block: SendBlock, chunk) -> None:
        gather = self._gathers.get(op.tag)
        frame = Frame(
            src=self.address,
            dst=self.address,
            payload_bytes=chunk.size,
            headers=0,
            kind="inic-local",
            payload=block.data if chunk.last else None,
            meta={"op": op.tag, "last": chunk.last, "total": block.nbytes},
        )
        if gather is None:
            self._park_early(op.tag, frame)
        else:
            self._account_rx(gather, frame)
        if chunk.last and block is op.blocks[-1]:
            op.sent.succeed(None)

    # -- exchange-phase fast path (repro.net.flowclock) ---------------------------------
    def _fast_eligible(self, op: ScatterOp) -> Optional[str]:
        """Can this train scatter take the bulk path exactly?  ``None``
        if so, else the reason it cannot.

        Requires the fast path switched on (``fastpath_off``), no loss
        recovery (``retries``: retention/NACK state must see every frame
        individually), the shared-bus geometry (``bus_geometry``: one
        FCFS clock carries the whole cascade, so it reduces to closed
        form), a design whose slowest core keeps up with that bus
        (``stall``: a stalled datapath lets the slow path's ingest and
        egress interleave, which the closed form does not model), a
        train-capable (``no_train_wire``) fault-free
        (``fault_armed``) fabric, and a quiescent flow window — no
        ``broadcast`` block, each block within the window (``window``)
        and nothing outstanding toward its destination
        (``outstanding_credit``), so credit elision cannot overrun a
        receiver.  The fabric's train path serves exactly these
        scatters: it raises on a faulted fabric and on a broadcast
        frame rather than keep a frame-level copy of either.
        """
        if not self.fastpath:
            return "fastpath_off"
        if self.spec.proto.max_retries > 0:
            return "retries"
        bus = self.host_tx
        if bus is not self.net_tx or not isinstance(bus, FCFSBus):
            return "bus_geometry"
        if self.datapath_rate(bus.bandwidth) < bus.bandwidth:
            return "stall"
        wire = self._wire_out
        if wire is None or not hasattr(wire, "send_train"):
            return "no_train_wire"
        if wire.fault is not None or not wire.fabric.fastpath_ok():
            return "fault_armed"
        window = op.window_bytes or self.spec.flow_window
        addr = self.address.value
        outstanding = self._outstanding
        for block in op.blocks:
            dst = block.dst.value
            if dst == -1:
                return "broadcast"
            if block.nbytes > window:
                return "window"
            if dst != addr and outstanding.get(dst, 0.0) > 0.0:
                return "outstanding_credit"
        return None

    def _fast_rows(self, nbytes: int, window: int) -> tuple[tuple, ...]:
        """The fast path's per-chunk constants for a block of ``nbytes``
        under ``window``, memoised per spec (every card of a spec has
        the same bus rate and arbitration).

        One row per chunk of :meth:`_chunks_of`: ``(size, d_xfer, last,
        n_packets, wire_size, nbytes)``, where ``d_xfer`` is one bus
        crossing (arbitration plus ``size / bandwidth``, the expression
        :meth:`FCFSBus.transfer` evaluates, so the rows hold the same
        floats) and ``wire_size`` :func:`wire_bytes` of the chunk.
        """
        bus = self.host_tx
        bw = bus.bandwidth
        arb = bus.arbitration_latency
        proto = self.spec.proto
        packet_size = proto.packet_size
        overhead = ETHERNET_OVERHEAD + proto.headers
        sizes = self._chunks_of(nbytes, window)
        n_last = len(sizes) - 1
        rows = []
        for i, size in enumerate(sizes):
            n_packets = -(-size // packet_size)
            padded = MIN_FRAME_PAYLOAD * n_packets
            rows.append((
                size,
                arb + size / bw,
                i == n_last,
                n_packets,
                (size if size > padded else padded) + n_packets * overhead,
                nbytes,
            ))
        rows = tuple(rows)
        self._row_cache[(nbytes, window)] = rows
        return rows

    def _run_scatter_fast(self, op: ScatterOp) -> None:
        """Whole-scatter datapath in closed form: zero events per chunk.

        The slow path's per-chunk event cascade (ingest transfer,
        egress-queue rendezvous, credit gate, egress transfer) collapses
        onto the shared bus clock: chunks alternate ingest/egress
        strictly, each egress starting as its chunk's ingest ends (no
        core stalls the datapath, :meth:`_fast_eligible`).  The bus
        clock and statistics are committed in bulk, the wire chunks
        become one column :class:`~repro.net.packet.Train` handed to the
        fabric's flow clock in one call, and the operation completes
        with two scheduled callbacks total (delivery of self-addressed
        chunks, a second train that never touches the wire, adds one
        each).  Credits are elided: eligibility already guaranteed the
        window cannot overrun, and train frames arrive through
        :meth:`receive_train`, never the credit-returning
        :meth:`_rx_loop`.

        The block loop is :meth:`_scatter_blocks`, or its compiled form
        when the extension is built; the compiled loop hands a block it
        does not cover (self-addressed, a row-memo miss) back untouched
        and :meth:`_scatter_blocks` lays down that one block.  The
        counters are sums of integers, added once per scatter from the
        train's columns.
        """
        sim = self.sim
        now = sim.now
        bus = self.host_tx
        stats = self.stats
        window = op.window_bytes or self.spec.flow_window
        busy = bus._busy_until
        if now > busy:
            busy = now
        busy_add = 0.0
        mem = self._mem_in_use
        peak = stats.peak_memory_bytes
        addr = self.address
        tag = op.tag
        train = Train(addr, self.spec.proto.headers, kind="inic", op=tag)
        local = Train(addr, 0, kind="inic-local", op=tag)
        blocks = op.blocks
        end = len(blocks)
        i = 0
        while i < end:
            i, busy, busy_add, mem, peak = _scatter_blocks(
                self, blocks, i, end, window, train, local,
                busy, busy_add, mem, peak,
            )
            if i < end:
                i, busy, busy_add, mem, peak = self._scatter_blocks(
                    blocks, i, i + 1, window, train, local,
                    busy, busy_add, mem, peak,
                )
        self._mem_in_use = mem
        stats.peak_memory_bytes = peak
        local_times = local.times
        ingested = sum(local.payload_bytes)
        egressed = 0
        last_t = now
        n_wire = len(train)
        if n_wire:
            egressed = sum(train.payload_bytes)
            stats.frames_sent += sum(train.frame_count)
            stats.bytes_egressed += egressed
            last_t = train.times[-1]
        if local_times:
            last_t = max(last_t, *local_times)
        stats.bytes_ingested += ingested + egressed
        bus._busy_until = busy
        bus_stats = bus.stats
        bus_stats.bytes_transferred += ingested + 2 * egressed
        bus_stats.transfer_count += len(local_times) + 2 * n_wire
        bus_stats.busy_time += busy_add
        if n_wire:
            self._wire_out.send_train(train)
        for k, ready in enumerate(local_times):
            sim.call_after(ready - now, self._fast_local_deliver, local, k)
        sim.call_after(last_t - now, op.sent.succeed, None)

    def _scatter_blocks(
        self,
        blocks: list[SendBlock],
        start: int,
        end: int,
        window: int,
        train: Train,
        local: Train,
        busy: float,
        busy_add: float,
        mem: float,
        peak: float,
    ) -> tuple[int, float, float, float, float]:
        """Lay ``blocks[start:end]`` down chunk by chunk: wire chunks on
        ``train``'s columns, self-addressed ones on ``local``.

        ``busy`` is the shared bus clock, ``busy_add`` the busy time
        accumulated this scatter, ``mem`` and ``peak`` the memory gauge
        (exactly :meth:`_track_mem`'s adds and compares, in order; a
        release can never raise the peak); returns ``(end, busy,
        busy_add, mem, peak)``.  The per-chunk constants come from
        :meth:`_fast_rows`, so the loop runs only the bus and memory
        recurrences.  ``repro/inic/_ctrain.c`` is its compiled form,
        float operation for float operation.
        """
        row_cache = self._row_cache
        addr = self.address
        own = addr.value
        add_dst = train.dst.append
        add_size = train.payload_bytes.append
        add_wire = train.wire_size.append
        add_count = train.frame_count.append
        add_payload = train.payload.append
        add_last = train.last.append
        add_total = train.total.append
        add_time = train.times.append
        rows_bytes = -1
        rows: tuple[tuple, ...] = ()
        for k in range(start, end):
            block = blocks[k]
            nbytes = block.nbytes
            if nbytes != rows_bytes:
                rows = row_cache.get((nbytes, window))
                if rows is None:
                    rows = self._fast_rows(nbytes, window)
                rows_bytes = nbytes
            dst = block.dst
            data = block.data
            if dst.value == own:
                for size, d_xfer, last_chunk, _, _, _ in rows:
                    busy += d_xfer
                    busy_add += d_xfer
                    mem += size
                    if mem > peak:
                        peak = mem
                    mem -= size
                    local.append(
                        addr, size, busy,
                        payload=data if last_chunk else None,
                        last=last_chunk,
                        total=nbytes,
                    )
                continue
            for size, d_xfer, last_chunk, n_packets, wire_size, total in rows:
                # Ingest ends (ready), the egress ends: two float adds,
                # left to right, in that order.
                busy = busy + d_xfer + d_xfer
                busy_add += d_xfer
                busy_add += d_xfer
                mem += size
                if mem > peak:
                    peak = mem
                mem -= size
                add_dst(dst)
                add_size(size)
                add_wire(wire_size)
                add_count(n_packets)
                add_payload(data if last_chunk else None)
                add_last(last_chunk)
                add_total(total)
                add_time(busy)
        return end, busy, busy_add, mem, peak

    def _fast_local_deliver(self, local: Train, i: int) -> None:
        """Self-addressed chunk ``i`` of ``local`` lands (the fast-path
        twin of :meth:`_local_deliver`; completion is signalled
        separately)."""
        gather = self._gathers.get(local.op)
        if gather is None:
            self._park_early(local.op, local.frame(i))
            return
        nbytes = local.payload_bytes[i]
        gather.plan.account(local.src, nbytes)
        gather.pending_delivery += nbytes
        if local.last[i]:
            gather.store_payload(local.src, local.payload[i])

    def receive_train(
        self, trains: list[Train], idx: list[int], times: list[float]
    ) -> None:
        """Bulk receive from the fabric's delivery batcher: frame
        ``idx[k]`` of ``trains[k]`` arrived at ``times[k]``.

        One card-bus reservation covers the whole group's payload
        crossing (one back-to-back transfer per frame, exactly the slow
        path's per-frame bus occupancy), and one callback at its
        completion accounts every frame.  Every train a card receives
        is another card's scatter train (kind ``inic``, credit-free),
        and only the shared-bus geometry sends trains
        (:meth:`_fast_eligible`), so the receiver's bus is that FCFS bus
        too: a cluster's cards share one spec.
        """
        total = _group_bytes(trains, idx)
        if total is None:  # the compiled sum handed the group back
            total = self._group_bytes(trains, idx)
        _start, finish = self.net_rx.reserve(total, len(idx))
        self.sim.call_after(
            finish - self.sim.now, self._finish_rx_train, trains, idx
        )

    @staticmethod
    def _group_bytes(trains: list[Train], idx: list[int]) -> int:
        """The payload bytes of a delivery group."""
        total = 0
        for train, i in zip(trains, idx):
            total += train.payload_bytes[i]
        return total

    def _finish_rx_train(self, trains: list[Train], idx: list[int]) -> None:
        """The group's bus crossing completed: account every frame.

        The frame loop is :meth:`_account_frames`, or its compiled form
        when the extension is built; the compiled loop hands a frame it
        does not cover back untouched (a parked frame, a deduping or
        reducing gather, a surplus-tolerant plan, an unknown sender or
        an overflow, the frame that completes its plan) and
        :meth:`_account_frames` accounts that one frame, or raises its
        error.
        """
        end = len(idx)
        k = 0
        while k < end:
            k = _account_frames(self, trains, idx, k, end)
            if k < end:
                k = self._account_frames(trains, idx, k, k + 1)

    def _account_frames(
        self, trains: list[Train], idx: list[int], start: int, end: int
    ) -> int:
        """Account frames ``start:end`` of the group; returns ``end``.

        The fused form of :meth:`_rx_loop`'s accounting, straight off
        the train columns: counters and the memory gauge ride in locals
        (same adds and compares as :meth:`_track_mem`, in order) and
        each frame is accounted against its gather's plan inline
        (:meth:`_account_rx`); a payload is appended to the gather's
        arrival columns inline too, unless the gather dedupes or reduces
        (:meth:`GatherOp.store_payload`).  A frame whose gather is not
        posted yet is built and parked in the backlog :meth:`post_gather`
        replays.  ``repro/inic/_ctrain.c`` is its compiled form, float
        operation for float operation.
        """
        stats = self.stats
        gathers = self._gathers
        mem = self._mem_in_use
        peak = stats.peak_memory_bytes
        frames_received = stats.frames_received
        bytes_received = stats.bytes_received
        for k in range(start, end):
            train = trains[k]
            i = idx[k]
            nbytes = train.payload_bytes[i]
            frames_received += train.frame_count[i]
            bytes_received += nbytes
            mem += nbytes
            if mem > peak:
                peak = mem
            src = train.src
            tag = train.op
            gather = gathers.get(tag)
            if gather is None:
                self._park_early(tag, train.frame(i))
                continue
            gather.plan.account(src, nbytes)
            gather.pending_delivery += nbytes
            if train.last[i]:
                payload = train.payload[i]
                if gather.dedupe_payloads or gather.reduce_core is not None:
                    gather.store_payload(src, payload)
                elif payload is not None:
                    gather._sources.append(src.value)
                    gather._items.append(payload)
        self._mem_in_use = mem
        stats.peak_memory_bytes = peak
        stats.frames_received = frames_received
        stats.bytes_received = bytes_received
        return end

    # -- receive datapath ---------------------------------------------------------------
    def _rx_loop(self):
        """MAC -> (depacketize, transform) -> card memory, chunked."""
        while True:
            frame = gather = None  # drop the last payload while parked
            frame = yield self._rx_q.get()
            # On the prototype the MAC shares the card bus, so arriving
            # payloads cross it before reaching card memory; the ideal
            # card's dedicated network path is modelled the same way.
            yield self.net_rx.transfer(frame.payload_bytes)
            self.stats.frames_received += frame.frame_count
            self.stats.bytes_received += frame.payload_bytes
            self._track_mem(frame.payload_bytes)
            if not frame.dst.is_broadcast and self._wire_out is not None:
                # Return a credit: the bytes have left the fabric.
                self._wire_out.send(
                    Frame(
                        src=self.address,
                        dst=frame.src,
                        payload_bytes=0,
                        headers=self.spec.proto.headers,
                        kind="inic-credit",
                        meta={"credit": frame.payload_bytes},
                    )
                )
            tag = frame.meta["op"]
            gather = self._gathers.get(tag)
            if gather is None:
                self._park_early(tag, frame)
            else:
                self._account_rx(gather, frame)

    def _account_rx(self, op: GatherOp, frame: Frame) -> None:
        op.plan.account(frame.src, frame.payload_bytes)
        op.pending_delivery += frame.payload_bytes
        if frame.meta.get("last"):
            op.store_payload(frame.src, frame.payload)

    def _gather_watch(self, op: GatherOp):
        """Deliver card->host in DMA-threshold granules; finish with a
        single completion interrupt.

        With ``proto.max_retries > 0`` the watch doubles as the loss
        detector: a plan that stops progressing for the (exponentially
        backed-off) NACK timeout triggers a NACK round asking each
        incomplete peer to re-issue its missing bytes; after the retry
        budget is spent the gather fails with
        :class:`~repro.errors.TransferAborted`.
        """
        threshold = float(self.spec.dma_threshold)
        proto = self.spec.proto
        plan_done = op.plan.complete
        while True:
            if op.pending_delivery >= threshold:
                take = threshold
            elif plan_done.processed and op.pending_delivery > 0:
                take = op.pending_delivery
            elif plan_done.processed:
                break
            else:
                # Wait for more arrivals or completion; poll on delivery
                # progress via a short event rendezvous with the rx loop.
                received = op.plan.total_received()
                if received == op.last_seen_received:
                    op.stalled_polls += 1
                    stalled_for = op.stalled_polls * self._poll_dt()
                    if proto.max_retries > 0:
                        # Exponential backoff between recovery rounds.
                        deadline = proto.timeout * (
                            proto.retry_backoff ** op.retries
                        )
                        if stalled_for >= deadline:
                            if op.retries >= proto.max_retries:
                                err = TransferAborted(
                                    f"{self.name}: gather #{op.tag} gave up "
                                    f"at {received}/{op.plan.total_expected()}"
                                    f" bytes after {op.retries} retransmit "
                                    "rounds"
                                )
                                self.stats.transfer_aborts += 1
                                self._gathers.pop(op.tag, None)
                                op.done.fail(err)
                                return
                            self._send_nacks(op)
                            op.retries += 1
                            op.stalled_polls = 0
                    elif stalled_for > self.STALL_TIMEOUT:
                        err = OffloadError(
                            f"{self.name}: gather #{op.tag} stalled at "
                            f"{received}/{op.plan.total_expected()} bytes — "
                            "data lost in the fabric (flow-control window "
                            "too large for this traffic pattern?)"
                        )
                        self._gathers.pop(op.tag, None)
                        op.done.fail(err)
                        return
                else:
                    op.stalled_polls = 0
                    op.last_seen_received = received
                yield self.sim.any_of([plan_done, self.sim.timeout(self._poll_dt())])
                continue
            yield self.host_rx.transfer(take)
            op.pending_delivery -= take
            op.delivered_bytes += take
            self._track_mem(-take)
            self.stats.bytes_delivered += take
        # Single completion interrupt for the whole operation.
        self.stats.completion_interrupts += 1
        if self.cpu is not None:
            self.cpu.steal(self.spec.completion_irq_cost)
        self._gathers.pop(op.tag, None)
        op.done.succeed(op.result())

    def _send_nacks(self, op: GatherOp) -> None:
        """One recovery round: ask every incomplete peer for its missing
        bytes (``need_payload`` marks peers whose functional payload —
        the ``last``-flagged packet — was among the losses)."""
        if self._wire_out is None:
            return
        proto = self.spec.proto
        for peer, missing in op.plan.missing_by_peer().items():
            if peer == self.address.value:
                continue  # local loopback cannot lose data
            self.stats.nacks_sent += 1
            self._wire_out.send(
                Frame(
                    src=self.address,
                    dst=MacAddress(peer),
                    payload_bytes=0,
                    headers=proto.headers,
                    kind="inic-nack",
                    meta={
                        "op": op.tag,
                        "missing": missing,
                        "need_payload": op.payload_missing(peer),
                    },
                )
            )

    def _poll_dt(self) -> float:
        """Polling granule for the delivery engine: time for one DMA
        threshold to arrive at the network rate."""
        return self.spec.dma_threshold / self.net_rx.bandwidth

    # -- compute-accelerator mode -----------------------------------------------------------
    def compute(self, data, kernel: Callable, in_bytes: int, out_bytes: int) -> Event:
        """Run ``kernel(data)`` on the card: DMA in, process, DMA out.

        Used in COMPUTE mode (Section 2): the FPGAs as an application
        accelerator with a separate path to host memory for networking.
        """
        if in_bytes < 1 or out_bytes < 0:
            raise OffloadError("bad compute transfer sizes")
        done = self.sim.event(name=f"{self.name}.compute")

        def proc():
            yield self.host_tx.transfer(in_bytes)
            rate = self.datapath_rate(self.spec.memory_bandwidth)
            yield self.sim.timeout(max(in_bytes, out_bytes) / rate)
            result = kernel(data)
            if out_bytes > 0:
                yield self.host_rx.transfer(out_bytes)
            if self.cpu is not None:
                self.cpu.steal(self.spec.completion_irq_cost)
            self.stats.completion_interrupts += 1
            done.succeed(result)

        self.sim.process(proc(), name=f"{self.name}.compute")
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<INICCard {self.name!r} spec={self.spec.name} addr={self.address}>"


#: the fast path's block and frame loops: the compiled forms when the
#: extension is built, else the reference methods they mirror
if _ctrain is None:
    _scatter_blocks = INICCard._scatter_blocks
    _group_bytes = INICCard._group_bytes
    _account_frames = INICCard._account_frames
else:
    _scatter_blocks = _ctrain.scatter_blocks
    _group_bytes = _ctrain.group_bytes
    _account_frames = _ctrain.account_frames


class _EgressChunk:
    __slots__ = ("op", "block", "size", "last")

    def __init__(self, op: ScatterOp, block: SendBlock, size: int, last: bool):
        self.op = op
        self.block = block
        self.size = size
        self.last = last
