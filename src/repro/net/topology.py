"""Float-clock fabrics: star, fat-tree and 3D-torus topologies at O(ports) cost.

The full wire star (:func:`~repro.net.fabric.build_star`) gives every
hop its own object and timed callbacks.  This module folds every
contention point into a ``busy_until`` float clock instead: a frame's
route is a short tuple of clock indices, each hop is a few float
operations, and delivery is a single pooled ``call_after``.  A
1024-node alltoall costs one event per frame on every topology.

Topologies
----------
:class:`StarTopology`
    The prototype's single switch (Section 5): one egress clock per
    station and the one-hop route ``(dst,)``.  ``build_aggregate_star``
    wires it; this is the ``"aggregate"`` fabric of the scale suite.

:class:`FatTreeTopology`
    Two-level leaf/spine Clos.  Stations attach to leaves;
    ``ceil(leaf_ports / oversub)`` spines give an ``oversub``:1
    oversubscription of leaf uplink capacity.  Path selection is
    ECMP-free and deterministic: traffic to destination ``d`` always
    crosses spine ``d % n_spines`` — the same frame sequence routes
    identically on every run and under any ``--jobs`` fan-out.

:class:`TorusTopology`
    3D torus with dimension-ordered (X then Y then Z) routing in the
    spirit of APEnet+: each hop takes the shorter wrap direction, ties
    break toward positive.  Each station's router contributes six
    directional link clocks plus an ejection clock.

Timing model (and where it approximates)
----------------------------------------
The end-to-end *base* latency of every path is kept identical to the
wire star's: uplink serialization + one propagation + one forwarding
decision + one egress serialization + one propagation.  Intermediate
hops are *contention-only*: crossing a busy inter-switch link waits for
the link clock (FIFO, line-rate spacing) but an idle one is crossed for
free — cut-through with zero per-hop latency.  Inter-switch links are
lossless (credit-based link-level flow control, as on APEnet+'s torus
links and InfiniBand-style Clos fabrics), so congestion there is
queueing delay, never silent loss; only the final egress port keeps the
star's Ethernet tail-drop semantics.
That is deliberate: at low load every topology reproduces the wire
star's arrival times byte-for-byte (the ``stars`` entry of the pair
registry, ``tests/test_pairs.py``), and under load the extra
contention points shape the curves.
"""

from __future__ import annotations

from array import array
from math import ceil, sqrt
from typing import Optional, Sequence, TYPE_CHECKING

from ..errors import NetworkError
from ..sim.engine import Simulator
from .addresses import MacAddress
from .fabric import (
    FrameDevice,
    GIGABIT_ETHERNET,
    NetworkTechnology,
    validate_stations,
)
from .packet import Frame, Train

try:  # optional compiled slice loop (python setup.py build_ext --inplace)
    from . import _cadmit
except ImportError:  # no compiler / wheel built without the extension
    _cadmit = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultPlan

__all__ = [
    "StarTopology",
    "FatTreeTopology",
    "TorusTopology",
    "HierarchicalFabric",
    "ClockStats",
    "build_aggregate_star",
    "build_fattree",
    "build_torus",
    "torus_dims",
]


class StarTopology:
    """One switch: clock ``i`` is station ``i``'s output port.

    Every route is the single egress hop ``(dst,)``, so the fabric is
    exactly two contention points per frame — the sender's uplink and
    the destination's output port — as in the wire star.
    """

    kind = "star"
    #: Ethernet switch: the output port tail-drops
    lossless = False

    def __init__(self, n_stations: int):
        if n_stations < 1:
            raise NetworkError("star needs at least one station")
        self.n_stations = n_stations
        self.n_clocks = n_stations

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        return (dst,)

    def route_key(self, src: int, dst: int) -> int:
        """Route-cache key: a star route only depends on ``dst``."""
        return dst

    def failure_domain(self, component: str) -> tuple[int, tuple[int, ...]]:
        """The star has no failable switch: only ``up<P>`` uplink
        windows apply (a single-star switch failure is a whole-cluster
        outage, not a reroute scenario)."""
        raise NetworkError(
            f"aggregate star cannot fail switch component "
            f"{component!r}: its single switch is every "
            f"station's only path (choose uplink components "
            f"up0..up{self.n_stations - 1}, or a fattree/torus "
            f"fabric for switch failures)"
        )

    def switches(self) -> list[tuple[str, list[int]]]:
        return [("switch", list(range(self.n_stations)))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StarTopology {self.n_stations} stations>"


class FatTreeTopology:
    """Two-level leaf/spine geometry + deterministic routing.

    Clock layout (indices into the fabric's clock arrays):

    * ``0 .. n-1`` — station egress ports (``leafL.downX``), the final
      hop of every route;
    * then ``n_leaves * n_spines`` leaf uplinks (``leafL.upS``);
    * then ``n_spines * n_leaves`` spine downlinks (``spineS.downL``).
    """

    kind = "fattree"
    #: Ethernet leaf/spine: the egress port tail-drops like the star's
    lossless = False

    def __init__(
        self,
        n_stations: int,
        oversub: int = 1,
        leaf_ports: Optional[int] = None,
        leaves: Optional[int] = None,
    ):
        if n_stations < 1:
            raise NetworkError("fat-tree needs at least one station")
        if int(oversub) != oversub or oversub < 1:
            raise NetworkError(
                f"fat-tree oversub must be a positive integer, got {oversub!r}"
            )
        oversub = int(oversub)
        if leaf_ports is None:
            # Near-square default: ~sqrt(n) stations per leaf, so leaf
            # count and leaf radix grow together.
            leaf_ports = max(1, ceil(sqrt(n_stations)))
        if leaf_ports < 1:
            raise NetworkError(f"fat-tree leaf_ports must be >= 1, got {leaf_ports}")
        if leaves is None:
            leaves = ceil(n_stations / leaf_ports)
        if leaves * leaf_ports < n_stations:
            raise NetworkError(
                f"fat-tree out of ports: {leaves} leaves x {leaf_ports} "
                f"ports hold {leaves * leaf_ports} stations, need {n_stations}"
            )
        self.n_stations = n_stations
        self.oversub = oversub
        self.leaf_ports = leaf_ports
        self.n_leaves = leaves
        self.n_spines = max(1, ceil(leaf_ports / oversub))
        self._up_base = n_stations
        self._spine_base = n_stations + self.n_leaves * self.n_spines
        self.n_clocks = self._spine_base + self.n_spines * self.n_leaves

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Clock indices the frame traverses; the last is the egress port."""
        lp = self.leaf_ports
        src_leaf = src // lp
        dst_leaf = dst // lp
        if src_leaf == dst_leaf:
            return (dst,)
        spine = dst % self.n_spines
        return (
            self._up_base + src_leaf * self.n_spines + spine,
            self._spine_base + spine * self.n_leaves + dst_leaf,
            dst,
        )

    def route_key(self, src: int, dst: int) -> int:
        """Route-cache key: a fat-tree route only depends on the source
        *leaf*, so the memo stays ``n_leaves * n`` entries, not ``n^2``."""
        return (src // self.leaf_ports) * self.n_stations + dst

    # -- component failures ------------------------------------------------
    def switch_components(self) -> list[str]:
        """Switch names a :class:`~repro.faults.ComponentFaultSpec` may
        fail.  Only spines: a leaf is its stations' sole attachment, so
        its failure is a station failure, not a reroute scenario."""
        return [f"spine{s}" for s in range(self.n_spines)]

    def failure_domain(self, component: str) -> tuple[int, tuple[int, ...]]:
        """``(spine index, clock indices)`` killed by failing ``component``.

        The domain is the spine's downlink clocks: a frame already
        hashed to a dead spine crosses its leaf uplink (charged — the
        leaf did serialize it) and is blackholed at the spine.
        """
        if component.startswith("spine") and component[5:].isdigit():
            k = int(component[5:])
            if k < self.n_spines:
                return k, tuple(
                    self._spine_base + k * self.n_leaves + leaf
                    for leaf in range(self.n_leaves)
                )
        raise NetworkError(
            f"unknown fat-tree switch component {component!r} (choose "
            f"from {', '.join(self.switch_components())}; leaves are "
            f"each their stations' only attachment and are not failable)"
        )

    def route_avoiding(
        self, src: int, dst: int, dead: set, cache: Optional[dict] = None
    ) -> tuple[Optional[tuple[int, ...]], bool]:
        """Fault-tolerant route: ``(hops, rerouted)``.

        Flows whose default spine survives keep their exact
        zero-failure path; flows hashed to a dead spine rehash
        deterministically over the surviving spines
        (``live[dst % len(live)]``).  ``hops`` is ``None`` when no
        spine survives — inter-leaf traffic is partitioned.
        """
        lp = self.leaf_ports
        src_leaf = src // lp
        if src_leaf == dst // lp:
            return (dst,), False
        spine = dst % self.n_spines
        if spine not in dead:
            return self.route(src, dst), False
        live = [s for s in range(self.n_spines) if s not in dead]
        if not live:
            return None, True
        spine = live[dst % len(live)]
        return (
            self._up_base + src_leaf * self.n_spines + spine,
            self._spine_base + spine * self.n_leaves + dst // lp,
            dst,
        ), True

    def clock_name(self, clock: int) -> str:
        if clock < self._up_base:
            return f"leaf{clock // self.leaf_ports}.down{clock % self.leaf_ports}"
        if clock < self._spine_base:
            k = clock - self._up_base
            return f"leaf{k // self.n_spines}.up{k % self.n_spines}"
        k = clock - self._spine_base
        return f"spine{k // self.n_leaves}.down{k % self.n_leaves}"

    def switches(self) -> list[tuple[str, list[int]]]:
        """``(switch name, clock indices)`` pairs for telemetry."""
        out = []
        for leaf in range(self.n_leaves):
            down = [
                c
                for c in range(leaf * self.leaf_ports, (leaf + 1) * self.leaf_ports)
                if c < self.n_stations
            ]
            up = [
                self._up_base + leaf * self.n_spines + s
                for s in range(self.n_spines)
            ]
            out.append((f"leaf{leaf}", down + up))
        for spine in range(self.n_spines):
            out.append(
                (
                    f"spine{spine}",
                    [
                        self._spine_base + spine * self.n_leaves + leaf
                        for leaf in range(self.n_leaves)
                    ],
                )
            )
        return out

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "leaves": self.n_leaves,
            "spines": self.n_spines,
            "leaf_ports": self.leaf_ports,
            "oversub": self.oversub,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FatTreeTopology {self.n_stations} stations, "
            f"{self.n_leaves}x{self.leaf_ports} leaves, {self.n_spines} spines>"
        )


def torus_dims(n: int) -> tuple[int, int, int]:
    """A near-cubic exact factorization of ``n`` (X, Y, Z with XYZ=n)."""
    if n < 1:
        raise NetworkError(f"torus needs at least one station, got {n}")
    target = n ** (1.0 / 3.0)
    x = min(
        (d for d in range(1, n + 1) if n % d == 0),
        key=lambda d: (abs(d - target), d),
    )
    rest = n // x
    target2 = sqrt(rest)
    y = min(
        (d for d in range(1, rest + 1) if rest % d == 0),
        key=lambda d: (abs(d - target2), d),
    )
    return (x, y, rest // y)


class TorusTopology:
    """3D torus with dimension-ordered shortest-wrap routing.

    Every router contributes seven clocks: ``+x,-x,+y,-y,+z,-z`` link
    clocks (``router*7 + 0..5``) and one ejection port
    (``router*7 + 6``) — the final hop of every route, playing the role
    the output port plays in the star.
    """

    kind = "torus"
    #: APEnet+-style system-area interconnect: credit-based link-level
    #: flow control end to end, ejection included — congestion is
    #: queueing delay, never loss
    lossless = True

    #: direction-clock display names, matching the route() encoding
    _DIRS = ("x+", "x-", "y+", "y-", "z+", "z-", "eject")

    def __init__(self, n_stations: int, dims: Optional[Sequence[int]] = None):
        if n_stations < 1:
            raise NetworkError("torus needs at least one station")
        if dims is None:
            dims = torus_dims(n_stations)
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise NetworkError(
                f"torus dims must be three positive integers, got {dims!r}"
            )
        routers = dims[0] * dims[1] * dims[2]
        if routers < n_stations:
            raise NetworkError(
                f"torus out of ports: dims {dims} hold {routers} stations, "
                f"need {n_stations}"
            )
        self.n_stations = n_stations
        self.dims = dims
        self.n_routers = routers
        self.n_clocks = routers * 7

    def coords(self, router: int) -> tuple[int, int, int]:
        x_dim, y_dim, _ = self.dims
        return (
            router % x_dim,
            (router // x_dim) % y_dim,
            router // (x_dim * y_dim),
        )

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Dimension-ordered X->Y->Z, shorter wrap direction, positive
        on ties; ends at the destination router's ejection clock."""
        if src == dst:
            return (dst * 7 + 6,)
        x_dim, y_dim, _ = self.dims
        dims = self.dims
        hops = []
        cur = [src % x_dim, (src // x_dim) % y_dim, src // (x_dim * y_dim)]
        dst_c = (dst % x_dim, (dst // x_dim) % y_dim, dst // (x_dim * y_dim))
        for axis in range(3):
            d = dims[axis]
            delta = (dst_c[axis] - cur[axis]) % d
            if delta == 0:
                continue
            if delta <= d - delta:
                step, direction, count = 1, 2 * axis, delta
            else:
                step, direction, count = -1, 2 * axis + 1, d - delta
            for _ in range(count):
                router = cur[0] + x_dim * (cur[1] + y_dim * cur[2])
                hops.append(router * 7 + direction)
                cur[axis] = (cur[axis] + step) % d
        hops.append(dst * 7 + 6)
        return tuple(hops)

    def route_key(self, src: int, dst: int) -> int:
        """Route-cache key: torus routes depend on the full pair."""
        return src * self.n_stations + dst

    # -- component failures ------------------------------------------------
    def neighbors(self, router: int) -> list[tuple[int, int]]:
        """``(direction, neighbor router)`` pairs in direction order
        (the deterministic tie-break order for detour routing)."""
        x_dim, y_dim, z_dim = self.dims
        c = self.coords(router)
        out = []
        for axis, dim in enumerate(self.dims):
            if dim == 1:
                continue  # a 1-wide axis wraps to self: no link
            for direction, step in ((2 * axis, 1), (2 * axis + 1, -1)):
                n = list(c)
                n[axis] = (n[axis] + step) % dim
                out.append((direction, n[0] + x_dim * (n[1] + y_dim * n[2])))
        return out

    def switch_components(self) -> list[str]:
        """Router names a :class:`~repro.faults.ComponentFaultSpec` may
        fail.  A dead router blocks transit; a station attached to it is
        partitioned for the window."""
        return [f"router{r}" for r in range(self.n_routers)]

    def failure_domain(self, component: str) -> tuple[int, tuple[int, ...]]:
        """``(router index, its seven clocks)`` for ``component``."""
        if component.startswith("router") and component[6:].isdigit():
            r = int(component[6:])
            if r < self.n_routers:
                return r, tuple(range(r * 7, r * 7 + 7))
        raise NetworkError(
            f"unknown torus switch component {component!r} "
            f"(choose from router0..router{self.n_routers - 1})"
        )

    def _nexthop_table(self, dst: int, dead: set) -> dict[int, int]:
        """Fault-tolerant next-hop table toward ``dst``: for every
        router that can still reach ``dst``, the direction clock of a
        shortest detour (BFS over live routers; among equal-length
        choices the lowest direction index wins, so the table — and
        every route walked from it — is deterministic)."""
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt = []
            for r in frontier:
                for _d, nbr in self.neighbors(r):
                    if nbr not in dist and nbr not in dead:
                        dist[nbr] = dist[r] + 1
                        nxt.append(nbr)
            frontier = nxt
        table: dict[int, int] = {}
        for r, d_r in dist.items():
            if r == dst:
                continue
            for direction, nbr in self.neighbors(r):
                if dist.get(nbr) == d_r - 1:
                    table[r] = r * 7 + direction
                    break
        return table

    def route_avoiding(
        self, src: int, dst: int, dead: set, cache: Optional[dict] = None
    ) -> tuple[Optional[tuple[int, ...]], bool]:
        """Fault-tolerant route: ``(hops, detoured)``.

        The dimension-ordered path is kept verbatim when it crosses no
        dead router (zero-failure pairs stay byte-identical); otherwise
        the frame walks the precomputed next-hop table around the
        failure.  ``hops`` is ``None`` when ``src`` or ``dst`` sits on
        a dead router or the failure partitions the pair.
        """
        if src in dead or dst in dead:
            return None, False
        hops = self.route(src, dst)
        if not any(h // 7 in dead for h in hops):
            return hops, False
        if cache is None:
            cache = {}
        table = cache.get(dst)
        if table is None:
            table = cache[dst] = self._nexthop_table(dst, dead)
        x_dim, y_dim, _ = self.dims
        out = []
        r = src
        while r != dst:
            step = table.get(r)
            if step is None:
                return None, True  # the failure partitions this pair
            out.append(step)
            direction = step % 7
            axis, sign = direction // 2, 1 if direction % 2 == 0 else -1
            c = list(self.coords(r))
            c[axis] = (c[axis] + sign) % self.dims[axis]
            r = c[0] + x_dim * (c[1] + y_dim * c[2])
        out.append(dst * 7 + 6)
        return tuple(out), True

    def clock_name(self, clock: int) -> str:
        return f"router{clock // 7}.{self._DIRS[clock % 7]}"

    def switches(self) -> list[tuple[str, list[int]]]:
        return [
            (f"router{r}", list(range(r * 7, r * 7 + 7)))
            for r in range(self.n_routers)
        ]

    def describe(self) -> dict:
        return {"kind": self.kind, "dims": list(self.dims)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        x, y, z = self.dims
        return f"<TorusTopology {self.n_stations} stations on {x}x{y}x{z}>"


class _AggregateUplink:
    """Station-side TX handle of a :class:`HierarchicalFabric`.

    Presents the slice of the :class:`~repro.net.link.Wire` surface the
    NIC/INIC datapaths actually use (``bandwidth``, ``send``,
    ``register_telemetry``) while the shared fabric does all timing.
    Serialization onto the uplink is still FIFO per station — a float
    ``_busy_until`` instead of a wire object.
    """

    __slots__ = (
        "fabric",
        "port",
        "name",
        "bandwidth",
        "propagation_delay",
        "_busy_until",
        "fault",
        "frames_sent",
        "bytes_sent",
        "busy_time",
    )

    def __init__(self, fabric, port: int, name: str):
        self.fabric = fabric
        self.port = port
        self.name = name
        self.bandwidth = fabric.bandwidth
        self.propagation_delay = fabric.propagation_delay
        self._busy_until = 0.0
        #: optional :class:`~repro.faults.WireFault` injector — same
        #: surface as :class:`~repro.net.link.Wire`
        self.fault = None
        self.frames_sent = 0
        self.bytes_sent = 0.0
        self.busy_time = 0.0

    def send(self, frame: Frame) -> float:
        return self.fabric._send(self, frame)

    def send_train(self, train: Train) -> float:
        """Bulk-admit a column train (see :mod:`repro.net.flowclock`)."""
        from .flowclock import admit_train

        return admit_train(self.fabric, self, train)

    def install_fault(self, fault) -> None:
        """Attach a :class:`~repro.faults.WireFault` injector.

        Faults are installed before the run: once ``sim.run()`` has been
        entered (``sim.started``) this raises, so no injector appears
        under a train in flight."""
        if self.fabric.sim.started:
            raise NetworkError(
                f"uplink {self.name!r}: faults are installed before the run"
            )
        if self.fault is not None:
            raise NetworkError(f"uplink {self.name!r} already has a fault injector")
        self.fault = fault

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def register_telemetry(self, registry, prefix: str) -> None:
        registry.busy(f"{prefix}.busy_time", lambda: self.busy_time)
        registry.counter(f"{prefix}.frames", lambda: self.frames_sent)
        registry.counter(f"{prefix}.bytes", lambda: self.bytes_sent, unit="B")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AggregateUplink {self.name!r} port={self.port}>"


class ClockStats:
    """Live, read-only view of one clock's slot in a fabric's ledger.

    Same attribute names as :class:`~repro.net.switch.PortStats`; each
    read indexes the fabric's columns, so a view never goes stale.
    """

    __slots__ = ("_fabric", "_clock")

    def __init__(self, fabric: "HierarchicalFabric", clock: int):
        self._fabric = fabric
        self._clock = clock

    @property
    def frames_forwarded(self) -> int:
        return self._fabric._fwd_frames[self._clock]

    @property
    def frames_dropped(self) -> int:
        return self._fabric._drop_frames[self._clock]

    @property
    def bytes_forwarded(self) -> float:
        return self._fabric._fwd_bytes[self._clock]

    @property
    def bytes_dropped(self) -> float:
        return self._fabric._drop_bytes[self._clock]

    @property
    def max_queue_bytes(self) -> float:
        return self._fabric._max_queue[self._clock]


class HierarchicalFabric:
    """Contention model over per-hop ``busy_until`` clocks.

    A topology maps each (src, dst) pair to a tuple of clock indices;
    the only other shared resource is each station's uplink.  Per
    frame:

    * **uplink** — ``start = max(now, up.busy_until)``; the frame is at
      the first switch ``tx + propagation + forwarding_latency`` later.
    * **intermediate clocks** charge contention only (see the module
      docstring).
    * **egress clock** — the destination's output port drains FIFO at
      line rate, so ``done = max(arrival, busy) + tx``.  The backlog in
      bytes at arrival is ``(busy - arrival) * bandwidth``; a frame that
      would stretch it past ``buffer_bytes_per_port`` is tail-dropped
      (unless the topology is ``lossless``), mirroring the wire
      switch's byte-accounted FIFO.

    Delivery is a single pooled ``call_after`` at ``done +
    propagation``.  Frame trains arrive formed by the sender's chunking
    (:mod:`repro.net.batching`); like the wire switch, the fabric
    forwards each one as it arrived.

    The per-clock state is a columnar ledger: ``_clock_busy``,
    ``_max_queue``, ``_fwd_bytes`` and ``_drop_bytes`` are
    ``array('d')``, ``_fwd_frames`` and ``_drop_frames`` ``array('q')``,
    one slot per clock, so the compiled slice loop
    (:mod:`repro.net.flowclock`) updates them as raw doubles and ints.
    ``compiled`` says whether that loop is the one admitting trains.

    The statistics surface matches :class:`~repro.net.switch.Switch`
    (``total_dropped``/``port_stats``/``<prefix>.port<i>.*``
    telemetry): ``port_stats(i)`` is a live :class:`ClockStats` view of
    station ``i``'s egress clock, and per-switch counters aggregate each
    switch's clocks at snapshot time (pull-based — the hot path never
    touches them).
    """

    def __init__(
        self,
        sim: Simulator,
        topology,
        bandwidth: float,
        propagation_delay: float = 1e-6,
        forwarding_latency: float = 4e-6,
        buffer_bytes_per_port: float = 128 * 1024,
        name: str = "fabric",
    ):
        if bandwidth <= 0:
            raise NetworkError(f"fabric bandwidth must be > 0, got {bandwidth}")
        if buffer_bytes_per_port <= 0:
            raise NetworkError("fabric buffers must be > 0 bytes")
        self.sim = sim
        self.name = name
        self.topology = topology
        self.n_stations = topology.n_stations
        self.bandwidth = float(bandwidth)
        self.propagation_delay = float(propagation_delay)
        self.forwarding_latency = float(forwarding_latency)
        self.buffer_bytes_per_port = float(buffer_bytes_per_port)
        self._lossless = bool(getattr(topology, "lossless", False))
        self._route = topology.route
        #: (route_key -> hop tuple) memo — routes are static, and at a
        #: million frames per run recomputing them dominated the profile.
        #: ``route_key(src, dst)`` is ``route_key(src, 0) + dst`` for
        #: every topology (keys are row-linear in dst), so the per-frame
        #: key is one list index and one add.
        self._routes: dict[int, tuple[int, ...]] = {}
        self._key_base = [
            topology.route_key(s, 0) for s in range(self.n_stations)
        ]
        self._uplinks = [
            _AggregateUplink(self, p, f"{name}.up{p}")
            for p in range(self.n_stations)
        ]
        self._devices: list[Optional[FrameDevice]] = [None] * self.n_stations
        n_clocks = topology.n_clocks
        self._clock_busy = array("d", [0.0]) * n_clocks
        self._max_queue = array("d", [0.0]) * n_clocks
        self._fwd_bytes = array("d", [0.0]) * n_clocks
        self._drop_bytes = array("d", [0.0]) * n_clocks
        self._fwd_frames = array("q", [0]) * n_clocks
        self._drop_frames = array("q", [0]) * n_clocks
        self._egress_clock = [
            topology.route(s, s)[-1] for s in range(self.n_stations)
        ]
        self._table: dict[int, int] = {}
        self._hops_total = 0
        self._frames_routed = 0
        self._max_hops = 0
        # -- component-failure state (all empty/zero unless a fault plan
        # schedules ComponentFaultSpec windows; the hot path only pays
        # falsy checks on the empty containers) -------------------------
        self._detection_delay = 0.0
        #: component windows awaiting the fabric's first frame (armed
        #: lazily so schedules align with the workload, not with however
        #: long setup — e.g. INIC bitstream configuration — took)
        self._pending_components: list[tuple] = []
        self._failed_clocks: set[int] = set()   # frames crossing these drop
        self._dead_switches: set[int] = set()   # routing's (detected) view
        self._dead_uplinks: set[int] = set()
        self._detour_keys: set[int] = set()     # route-memo keys on detours
        self._ft_cache: dict[int, dict[int, int]] = {}
        self._frames_in = 0
        self._reroutes = 0
        self._failover_drops = 0
        self._failover_drop_bytes = 0.0
        self._partition_drops = 0
        self._partition_drop_bytes = 0.0
        self._uplink_drops = 0
        self._uplink_drop_bytes = 0.0
        self._component_transitions = 0
        # -- bulk-admission fast path (repro.net.flowclock) -------------
        #: the train-delivery batcher, created with the first bulk train
        self._batcher = None
        #: True once a component-fault schedule is staged; cards then
        #: send frame by frame and the fabric refuses trains
        self._faults_armed = False
        #: trains admitted via the bulk fast path
        self.trains_fast = 0
        #: the compiled slice loop bound to this fabric's ledger, when
        #: the extension is built (else :meth:`_admit_unicast` runs)
        self._kernel = None if _cadmit is None else _cadmit.SliceKernel(self)

    # -- wiring -----------------------------------------------------------------
    def uplink(self, port: int) -> _AggregateUplink:
        """The TX handle to hand to the station on ``port``."""
        self._check_port(port)
        return self._uplinks[port]

    def attach_station(self, port: int, device: FrameDevice) -> None:
        self._check_port(port)
        if self._devices[port] is not None:
            raise NetworkError(f"fabric port {port} already attached")
        self._devices[port] = device

    def learn(self, address: MacAddress, port: int) -> None:
        """Install a static forwarding entry."""
        self._check_port(port)
        self._table[address.value] = port

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_stations:
            raise NetworkError(
                f"port {port} out of range 0..{self.n_stations - 1}"
            )

    # -- component failures ------------------------------------------------------
    def install_component_faults(self, plan: "FaultPlan") -> None:
        """Validate and stage every
        :class:`~repro.faults.ComponentFaultSpec` window of ``plan``.

        Window starts are **relative to the fabric's first frame**, not
        to simulation time zero: the schedule arms lazily when traffic
        begins, so setup phases of unpredictable length (INIC bitstream
        configuration, TCP warm-up) never silently consume a campaign's
        horizon.  First-frame time is itself a deterministic function of
        the run, so schedules stay bit-identical across ``--jobs``.

        At window start the component's clocks go dark (frames crossing
        them are dropped and charged); ``detection_delay`` later routing
        reacts — the fat-tree rehashes over surviving spines, the torus
        detours via its next-hop table; at window end the component
        repairs and routes converge back to the zero-failure paths.

        Faults are installed before the run: once ``sim.run()`` has been
        entered (``sim.started``) this raises :class:`NetworkError`, so
        no window can be staged while a train is in flight.
        """
        if self.sim.started:
            raise NetworkError(
                f"{self.name}: component faults are installed before the run"
            )
        spec = plan.spec
        self._detection_delay = spec.detection_delay
        staged: list[tuple] = []
        for comp in spec.components:
            if comp.kind == "uplink":
                port = self._parse_uplink(comp.component)
                staged.extend(
                    ("uplink", port, None, start, duration)
                    for start, duration in comp.windows
                )
                continue
            entity, clocks = self.topology.failure_domain(comp.component)
            staged.extend(
                ("switch", entity, clocks, start, duration)
                for start, duration in comp.windows
            )
        self._pending_components = staged
        if staged:
            self._faults_armed = True

    def _arm_component_faults(self) -> None:
        """First fabric traffic: turn the staged windows into scheduled
        fail/detect/repair events relative to now.  A window starting at
        exactly 0 fails synchronously, so the arming frame itself
        already sees the outage."""
        staged, self._pending_components = self._pending_components, []
        sim = self.sim
        detect = self._detection_delay
        for kind, entity, clocks, start, duration in staged:
            if kind == "uplink":
                if start <= 0:
                    self._uplink_down(entity)
                else:
                    sim.call_after(start, self._uplink_down, entity)
                sim.call_after(start + duration, self._uplink_up, entity)
                continue
            if start <= 0:
                self._switch_down(entity, clocks)
            else:
                sim.call_after(start, self._switch_down, entity, clocks)
            if 0 < detect < duration:
                sim.call_after(start + detect, self._switch_detected, entity)
            sim.call_after(start + duration, self._switch_up, entity, clocks)

    def _parse_uplink(self, component: str) -> int:
        if component.startswith("up") and component[2:].isdigit():
            port = int(component[2:])
            if port < self.n_stations:
                return port
        raise NetworkError(
            f"unknown uplink component {component!r} "
            f"(choose from up0..up{self.n_stations - 1})"
        )

    def _switch_down(self, entity: int, clocks: tuple[int, ...]) -> None:
        self._failed_clocks.update(clocks)
        self._component_transitions += 1
        if self._detection_delay == 0:
            self._switch_detected(entity)

    def _switch_detected(self, entity: int) -> None:
        self._dead_switches.add(entity)
        self._flush_routes()

    def _switch_up(self, entity: int, clocks: tuple[int, ...]) -> None:
        self._failed_clocks.difference_update(clocks)
        self._component_transitions += 1
        if entity in self._dead_switches:
            self._dead_switches.discard(entity)
            self._flush_routes()

    def _uplink_down(self, port: int) -> None:
        self._dead_uplinks.add(port)
        self._component_transitions += 1

    def _uplink_up(self, port: int) -> None:
        self._dead_uplinks.discard(port)
        self._component_transitions += 1

    def _flush_routes(self) -> None:
        # Routing state changed: recompute every route lazily against
        # the new live set (unaffected pairs recompute to their exact
        # old paths, so zero-failure equivalence is preserved).
        self._routes.clear()
        self._detour_keys.clear()
        self._ft_cache.clear()

    def component_counters(self) -> dict:
        """Failover/detour accounting (JSON-safe; feeds sweep reports)."""
        return {
            "reroutes": self._reroutes,
            "failover_drops": self._failover_drops,
            "failover_drop_bytes": float(self._failover_drop_bytes),
            "partition_drops": self._partition_drops,
            "partition_drop_bytes": float(self._partition_drop_bytes),
            "uplink_drops": self._uplink_drops,
            "uplink_drop_bytes": float(self._uplink_drop_bytes),
            "transitions": self._component_transitions,
        }

    def conservation_counters(self) -> dict:
        """Frame-conservation ledger: every frame the fabric routed is
        delivered, dropped at a clock (tail drop or dead component), or
        dropped at routing time for a partitioned destination — the
        chaos harness asserts ``frames_in`` equals the sum."""
        return {
            "frames_in": self._frames_in,
            "frames_delivered": self.total_forwarded(),
            "frames_dropped": self.total_dropped(),
            "partition_drops": self._partition_drops,
        }

    # -- data path ---------------------------------------------------------------
    def _send(self, uplink: _AggregateUplink, frame: Frame) -> float:
        sim = self.sim
        now = sim.now
        if self._pending_components:
            self._arm_component_faults()
        if self._dead_uplinks and uplink.port in self._dead_uplinks:
            # The station's own uplink is down: the frame vanishes at
            # the NIC (recovery, if enabled, will retry past the window).
            self._uplink_drops += frame.frame_count
            self._uplink_drop_bytes += frame.wire_size
            return now
        fault = uplink.fault
        wire_size = frame.wire_size
        tx_time = wire_size / self.bandwidth
        if fault is not None:
            # Same semantics as Wire.send: a dropped transfer vanishes
            # before serialization; a corrupted one burns its uplink
            # serialization time and is discarded unreceived.
            verdict = fault.disposition(frame, now)
            if verdict == "drop":
                return now
            if verdict == "corrupt":
                start = now if now > uplink._busy_until else uplink._busy_until
                uplink._busy_until = start + tx_time
                uplink.busy_time += tx_time
                return uplink._busy_until + self.propagation_delay
        return self._admit(uplink, frame, now, tx_time)

    def _admit(
        self, uplink: _AggregateUplink, frame: Frame, now: float, tx_time: float
    ) -> float:
        """Fault-free admission at logical time ``now``.

        The tail of :meth:`_send` with the clock reading parameterized;
        :meth:`_admit_slice` is its fused per-train twin for unicast
        frames.
        """
        start = now if now > uplink._busy_until else uplink._busy_until
        uplink._busy_until = start + tx_time
        uplink.frames_sent += frame.frame_count
        uplink.bytes_sent += frame.wire_size
        uplink.busy_time += tx_time
        arrival = start + tx_time + self.propagation_delay + self.forwarding_latency
        dst = frame.dst
        if dst.value == -1:  # broadcast: fan out along each unicast route
            last = now
            src_port = uplink.port
            for port in range(self.n_stations):
                if port != src_port and self._devices[port] is not None:
                    last = self._route_deliver(
                        src_port, port, frame.clone_for(dst), arrival, tx_time
                    )
            return last
        port = self._table.get(dst.value)
        if port is None:
            raise NetworkError(f"no forwarding entry for {dst}")
        return self._route_deliver(uplink.port, port, frame, arrival, tx_time)

    def _admit_slice(
        self,
        uplink: _AggregateUplink,
        train: Train,
        start: int,
        end: int,
        sink: list,
    ) -> None:
        """Admit the unicast frames ``start:end`` of ``train`` at their
        send times, collecting each delivery in ``sink`` as ``(port,
        index, at)``.

        The flow-clock fast path's fused form of per-frame :meth:`_admit`
        with delivery collected, straight off the train's columns.
        Every float operation is the frame-level one, in the same order,
        so clocks, ledgers and arrivals are bit-equal.  Each ``at`` is
        ``t + (deliver_at - t)``: frame-level delivery fires at the
        scheduler's reconstruction of the absolute time from the delay,
        one rounding away from ``deliver_at`` itself.

        The loop is the compiled slice loop when the extension is built,
        else :meth:`_admit_unicast`.  The compiled loop hands a frame it
        does not cover (a route-memo miss, a missing forwarding entry or
        station) back untouched; :meth:`_admit_unicast` then admits that
        one frame, or raises its error.  A broadcast frame has no
        forwarding entry, so it raises too.

        Only valid while :meth:`fastpath_ok` holds: no component window
        was ever staged, so no clock is failed, no switch is dead and no
        route detours.
        """
        admit = self._admit_unicast if self._kernel is None else self._kernel.admit
        while start < end:
            start = admit(uplink, train, start, end, sink)
            if start < end:
                start = self._admit_unicast(uplink, train, start, start + 1, sink)

    def _admit_unicast(
        self,
        uplink: _AggregateUplink,
        train: Train,
        start: int,
        end: int,
        sink: list,
    ) -> int:
        """The slice loop proper: admit the unicast frames ``start:end``;
        return ``end``.

        The uplink clock and the routing counters live in locals, each
        frame's serialization time is the frame path's own ``wire_size /
        bandwidth``, routes come straight from the memo, and each frame
        costs one :meth:`_walk_hops` call.  ``repro/net/_cadmit.c`` is
        its compiled form, float operation for float operation.
        """
        bandwidth = self.bandwidth
        prop = self.propagation_delay
        fwd = self.forwarding_latency
        table = self._table
        routes = self._routes
        devices = self._devices
        walk = self._walk_hops
        dsts = train.dst
        times = train.times
        wire_sizes = train.wire_size
        frame_counts = train.frame_count
        src_port = uplink.port
        key_base = self._key_base[src_port]
        busy_until = uplink._busy_until
        frames_sent = uplink.frames_sent
        bytes_sent = uplink.bytes_sent
        busy_time = uplink.busy_time
        frames_in = self._frames_in
        frames_routed = self._frames_routed
        hops_total = self._hops_total
        max_hops = self._max_hops
        try:
            for i in range(start, end):
                dst = dsts[i].value
                t = times[i]
                wire_size = wire_sizes[i]
                tx_time = wire_size / bandwidth
                begin = t if t > busy_until else busy_until
                busy_until = begin + tx_time
                frame_count = frame_counts[i]
                frames_sent += frame_count
                bytes_sent += wire_size
                busy_time += tx_time
                arrival = begin + tx_time + prop + fwd
                port = table.get(dst)
                if port is None:
                    raise NetworkError(f"no forwarding entry for {dsts[i]}")
                key = key_base + port
                frames_in += frame_count
                hops = routes.get(key)
                if hops is None:
                    hops = self._route_miss(key, src_port, port)
                n_hops = len(hops)
                frames_routed += 1
                hops_total += n_hops
                if n_hops > max_hops:
                    max_hops = n_hops
                deliver_at = walk(hops, arrival, wire_size, frame_count, tx_time)
                if deliver_at is None:
                    continue
                if devices[port] is None:
                    raise NetworkError(f"fabric port {port} has no station attached")
                sink.append((port, i, t + (deliver_at - t)))
        finally:
            uplink._busy_until = busy_until
            uplink.frames_sent = frames_sent
            uplink.bytes_sent = bytes_sent
            uplink.busy_time = busy_time
            self._frames_in = frames_in
            self._frames_routed = frames_routed
            self._hops_total = hops_total
            self._max_hops = max_hops
        return end

    @property
    def compiled(self) -> bool:
        """True when trains are admitted by the compiled slice loop."""
        return self._kernel is not None

    def fastpath_ok(self) -> bool:
        """True when the fabric takes trains: no component window —
        switch or uplink — is staged (cards then send frame by frame)."""
        return not self._faults_armed

    def _route_miss(self, key: int, src_port: int, dst_port: int) -> tuple[int, ...]:
        """Fill the route memo for ``key`` (``()`` marks a partition)."""
        if self._dead_switches:
            hops, detoured = self.topology.route_avoiding(
                src_port, dst_port, self._dead_switches, self._ft_cache
            )
            if hops is None:
                hops = ()  # cached partition sentinel
            elif detoured:
                self._detour_keys.add(key)
        else:
            hops = self._route(src_port, dst_port)
        self._routes[key] = hops
        return hops

    def _route_deliver(
        self, src_port: int, dst_port: int, frame: Frame, arrival: float,
        tx_time: float,
    ) -> float:
        key = self._key_base[src_port] + dst_port
        self._frames_in += frame.frame_count
        hops = self._routes.get(key)
        if hops is None:
            hops = self._route_miss(key, src_port, dst_port)
        if not hops:
            # Destination unreachable on the surviving topology: the
            # frame is dropped at routing time; end-to-end recovery
            # either outlives the window or surfaces TransferAborted.
            self._partition_drops += frame.frame_count
            self._partition_drop_bytes += frame.wire_size
            return self.sim.now
        if self._detour_keys and key in self._detour_keys:
            self._reroutes += frame.frame_count
        n_hops = len(hops)
        self._frames_routed += 1
        self._hops_total += n_hops
        if n_hops > self._max_hops:
            self._max_hops = n_hops
        dead = -1
        if self._failed_clocks:
            failed = self._failed_clocks
            for i in range(n_hops):
                if hops[i] in failed:
                    dead = i
                    break
        deliver_at = self._walk_hops(
            hops, arrival, frame.wire_size, frame.frame_count, tx_time, dead
        )
        if deliver_at is None:
            return self.sim.now
        device = self._devices[dst_port]
        if device is None:
            raise NetworkError(f"fabric port {dst_port} has no station attached")
        sim = self.sim
        sim.call_after(deliver_at - sim.now, device.receive_frame, frame)
        return deliver_at

    def _walk_hops(
        self,
        hops: tuple[int, ...],
        arrival: float,
        wire_size: int,
        frame_count: int,
        tx_time: float,
        dead: int = -1,
    ) -> Optional[float]:
        """Carry one frame along ``hops`` from the first switch, which it
        reaches at ``arrival``; returns its delivery time, or ``None``
        when it is dropped.

        The per-hop clock recurrence, shared by the frame-level and the
        slice path.  Intermediate hops: FIFO contention on each
        inter-switch link clock; an idle link is crossed for free.
        Inter-switch links are *lossless* — credit-based link-level flow
        control, as in APEnet+'s torus links and InfiniBand-style Clos
        fabrics — so congestion shows up as queueing delay (watch
        ``max_queue_bytes``), never as silent loss the end-to-end
        protocols cannot attribute.  Only the final egress port keeps the
        star's Ethernet tail-drop semantics.

        ``dead >= 0`` names the first failed clock on the route
        (detection window, or a partially-detected multi-hop path): the
        frame charges the live hops it actually traverses, then is
        blackholed at the dead component — the drop lands in that
        clock's ledger slot, so switch drop totals and the conservation
        ledger both see it.
        """
        busy = self._clock_busy
        max_queue = self._max_queue
        fwd_frames = self._fwd_frames
        fwd_bytes = self._fwd_bytes
        bandwidth = self.bandwidth
        n_links = len(hops) - 1 if dead < 0 else dead
        for i in range(n_links):
            k = hops[i]
            b = busy[k]
            backlog = (b - arrival) * bandwidth if b > arrival else 0.0
            queued = backlog + wire_size
            if queued > max_queue[k]:
                max_queue[k] = queued
            begin = b if b > arrival else arrival
            busy[k] = begin + tx_time
            fwd_frames[k] += frame_count
            fwd_bytes[k] += wire_size
            arrival = begin
        if dead >= 0:
            k = hops[dead]
            self._drop_frames[k] += frame_count
            self._drop_bytes[k] += wire_size
            self._failover_drops += frame_count
            self._failover_drop_bytes += wire_size
            return None
        # Final hop: the destination's egress port, exactly the star
        # model — except on lossless topologies (the torus), where the
        # ejection port is credit-backpressured like every other link
        # and overflow becomes delay instead of loss.
        k = hops[n_links]
        b = busy[k]
        backlog = (b - arrival) * bandwidth if b > arrival else 0.0
        queued = backlog + wire_size
        if queued > self.buffer_bytes_per_port and not self._lossless:
            self._drop_frames[k] += frame_count
            self._drop_bytes[k] += wire_size
            return None
        if queued > max_queue[k]:
            max_queue[k] = queued
        done = (b if b > arrival else arrival) + tx_time
        busy[k] = done
        fwd_frames[k] += frame_count
        fwd_bytes[k] += wire_size
        return done + self.propagation_delay

    # -- statistics ---------------------------------------------------------------
    def port_stats(self, port: int) -> ClockStats:
        """Station ``port``'s egress-clock stats (star-compatible view)."""
        self._check_port(port)
        return ClockStats(self, self._egress_clock[port])

    def clock_stats(self, clock: int) -> ClockStats:
        """Stats of an arbitrary clock (use ``topology.clock_name``)."""
        return ClockStats(self, clock)

    def total_dropped(self) -> int:
        return sum(self._drop_frames)

    def total_dropped_bytes(self) -> float:
        return sum(self._drop_bytes)

    def total_forwarded(self) -> int:
        """Frames delivered to stations (egress-clock count, matching
        the single-star fabrics; intermediate hops are not re-counted)."""
        fwd_frames = self._fwd_frames
        return sum(fwd_frames[c] for c in set(self._egress_clock))

    def hop_stats(self) -> dict:
        """Routing cost summary (JSON-safe; feeds sweep reports)."""
        frames = self._frames_routed
        return {
            "frames": frames,
            "total_hops": self._hops_total,
            "max_hops": self._max_hops,
            "avg_hops": (self._hops_total / frames) if frames else 0.0,
        }

    def register_telemetry(self, registry, prefix: str) -> None:
        """Fabric-wide, per-station-port, and per-switch instruments.

        Keeps the single-star naming for the shared surface
        (``<prefix>.forwarded`` / ``.drops`` / ``.port<i>.*``) and adds
        ``<prefix>.hops``, ``<prefix>.sw.<switch>.*`` aggregates.  All
        pull-based: registration costs nothing on the data path.
        """
        registry.counter(f"{prefix}.drops", self.total_dropped)
        registry.counter(f"{prefix}.forwarded", self.total_forwarded)
        registry.counter(f"{prefix}.hops", lambda: self._hops_total)
        registry.gauge(
            f"{prefix}.avg_hops", lambda: self.hop_stats()["avg_hops"]
        )
        for port in range(self.n_stations):
            stats = self.port_stats(port)
            p = f"{prefix}.port{port}"
            registry.counter(f"{p}.frames", lambda s=stats: s.frames_forwarded)
            registry.counter(f"{p}.bytes", lambda s=stats: s.bytes_forwarded, unit="B")
            registry.counter(f"{p}.drops", lambda s=stats: s.frames_dropped)
            registry.counter(
                f"{p}.dropped_bytes", lambda s=stats: s.bytes_dropped, unit="B"
            )
            registry.gauge(
                f"{p}.max_queue_bytes", lambda s=stats: s.max_queue_bytes, unit="B"
            )
        for switch, clocks in self.topology.switches():
            p = f"{prefix}.sw.{switch}"
            group = [self.clock_stats(c) for c in clocks]
            registry.counter(
                f"{p}.frames",
                lambda g=group: sum(s.frames_forwarded for s in g),
            )
            registry.counter(
                f"{p}.bytes",
                lambda g=group: sum(s.bytes_forwarded for s in g),
                unit="B",
            )
            registry.counter(
                f"{p}.drops", lambda g=group: sum(s.frames_dropped for s in g)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HierarchicalFabric {self.name!r} {self.topology!r}>"
        )


def _build_hierarchical(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    topology,
    tech: NetworkTechnology,
    name: str,
    faults: Optional["FaultPlan"],
) -> HierarchicalFabric:
    validate_stations(stations)
    buffer_bytes = tech.switch_buffer_per_port
    if faults is not None:
        buffer_bytes = faults.switch_buffer(buffer_bytes)
    fabric = HierarchicalFabric(
        sim,
        topology,
        bandwidth=tech.bandwidth,
        propagation_delay=tech.propagation_delay,
        forwarding_latency=tech.switch_latency,
        buffer_bytes_per_port=buffer_bytes,
        name=name,
    )
    for port, (addr, device) in enumerate(stations):
        uplink = fabric.uplink(port)
        device.attach_wire(uplink)
        fabric.attach_station(port, device)
        fabric.learn(addr, port)
        if faults is not None:
            wf = faults.wire_fault(uplink.name)
            if wf is not None:
                uplink.install_fault(wf)
    return fabric


def build_aggregate_star(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    tech: NetworkTechnology = GIGABIT_ETHERNET,
    name: str = "fabric",
    faults: Optional["FaultPlan"] = None,
) -> HierarchicalFabric:
    """Wire ``stations`` to a one-switch :class:`StarTopology`.

    The scale-out stand-in for :func:`~repro.net.fabric.build_star`.
    A ``faults`` plan installs
    per-uplink link-fault injectors (the uplinks carry the wire star's
    ``<name>.up<port>`` names, so a spec's ``wires`` pattern selects
    the same links) and applies forced switch-buffer pressure.  There
    are no downlink objects: a downlink fault on the wire star and an
    uplink fault here both cost the sender one lost transfer.
    """
    return _build_hierarchical(
        sim, stations, StarTopology(len(stations)), tech, name, faults
    )


def build_fattree(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    tech: NetworkTechnology = GIGABIT_ETHERNET,
    name: str = "fabric",
    faults: Optional["FaultPlan"] = None,
    oversub: int = 1,
    leaf_ports: Optional[int] = None,
    leaves: Optional[int] = None,
) -> HierarchicalFabric:
    """Wire ``stations`` to a leaf/spine fat-tree.

    ``faults`` installs per-uplink injectors and buffer pressure, as on
    the aggregate star.
    """
    topo = FatTreeTopology(
        len(stations), oversub=oversub, leaf_ports=leaf_ports, leaves=leaves
    )
    return _build_hierarchical(sim, stations, topo, tech, name, faults)


def build_torus(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    tech: NetworkTechnology = GIGABIT_ETHERNET,
    name: str = "fabric",
    faults: Optional["FaultPlan"] = None,
    dims: Optional[Sequence[int]] = None,
) -> HierarchicalFabric:
    """Wire ``stations`` to a 3D torus (dimension-ordered routing)."""
    topo = TorusTopology(len(stations), dims=dims)
    return _build_hierarchical(sim, stations, topo, tech, name, faults)
