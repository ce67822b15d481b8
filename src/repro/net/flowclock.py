"""Bulk flow-clock admission: the exchange-phase fast path.

Every float-clock fabric (:mod:`repro.net.topology`) reduces
contention to ``busy_until`` float clocks — an uplink clock per
station, an output (or per-hop link) clock per destination.  That makes the arrival time
of every frame in a bulk exchange a *closed-form function* of the send
times: no event needs to fire per frame, the clock recurrences just
have to be replayed in admission order.  This module does exactly that
for a frame **train** — the unit a sender's exchange phase produces,
held in columns (:class:`~repro.net.packet.Train`: the fields every
frame shares set once, the per-frame ones in parallel lists), built
once by the sending card and read unchanged by every step below:

``admit_train(fabric, uplink, train)``
    Replays the fabric's own admission recurrence per frame at its
    logical send time with delivery *collected* instead of scheduled.
    Each slice is one call of the fabric's fused slice loop,
    ``HierarchicalFabric._admit_slice``: the frame-level ``_admit``
    reading the train's columns, with the uplink clock and routing
    counters in locals, each frame's serialization time the frame
    path's own ``wire_size / bandwidth``, routes read from the memo,
    and the hops walked by ``_walk_hops`` — the one helper the
    frame-level ``_route_deliver`` uses too, so the hop recurrence has
    a single home.  When the optional extension is built, the slice
    goes through its compiled form instead, ``SliceKernel.admit`` in
    ``_cadmit.c``: the same float operations in the same order over
    the fabric's columnar clock ledger (``array('d')``/``array('q')``
    columns), compiled with ``-ffp-contract=off``, so the identity
    argument below covers it unchanged.  It hands a route-memo miss,
    or a frame with no forwarding entry or station, back to the Python
    loop.  Port clocks, per-hop telemetry, and the tail-drop ledger
    advance exactly as if each frame had been sent individually — the
    sequential recurrence is kept sequential on purpose, because
    prefix-scan reassociation is **not** float-identical.  Collected
    ``(port, index, at)`` deliveries are then handed, in admission
    order, to the fabric's :class:`DeliveryBatcher` (``add_many``),
    which gives each station whole delivery groups as ``(train, index,
    arrival)`` columns through its ``receive_train`` (one pooled event
    per group).

A train carries only what a card sends as one
(``INICCard._fast_eligible``): unicast frames of a credit-windowed
exchange, on a fault-free fabric, to stations that take whole groups.
The card refuses every other case and sends it frame by frame, so the
fabric keeps no frame-level copy of it: ``admit_train`` raises
:class:`~repro.errors.NetworkError` on a faulted uplink or a fabric
with staged component windows, and a broadcast frame in a train fails
as "no forwarding entry".  Faults are installed before the run starts,
so no window can arm in the middle of a train.  No
:class:`~repro.net.packet.Frame` is built on this path except for a
receiving card's backlog for a gather not yet posted.

Identity argument (see docs/architecture.md §3)
-----------------------------------------------
A ``busy_until`` clock's state depends only on the *order* and logical
times of its admissions.  Admitting a train's frames inside one DES
event, each at its recorded send time, performs the identical float
operations in the identical order as separate sends — provided no
other admission interleaves on a shared clock in between.  Admission is
therefore *sliced*: one event admits the frames due within
:data:`ADMIT_SLICE` of logical time, so overlapping senders interleave
at slice (not frame) granularity and a port clock never runs more than
one slice ahead of global time — whole-train admission would let one
train's tail count as phantom backlog against another train's head and
manufacture tail-drops the frame-level path never takes.  A single
train's frames stay sequentially ordered across its slices, so where
trains do not overlap (the A/B harness's staggered phase) equality is
exact to the last bit.  Under overlap it is approximate, and the skew
is *not* bounded by one slice: queueing behind a shifted frame carries
the shift downstream.  ``tests/test_topology.py`` measures it with 300
MTU frames per sender.  At ~40% uplink load the largest per-frame skew
is 1.02 slices and the drop ledgers match.  Near line rate it reaches
5-24 slices, and on the tail-dropping fabrics the ledgers differ.
The frame-level model (``Experiment().fastpath(False)``) is exact.

Run ``python -m repro.net.flowclock --ab`` to replay the scale suite's
exchange patterns frame-level vs bulk on every fabric and diff arrival
floats and conservation ledgers exactly (a CI step).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from ..errors import NetworkError
from ..sim.engine import Simulator
from .packet import Frame, Train

__all__ = ["admit_train", "DeliveryBatcher", "TRAIN_TOLERANCE", "TRAIN_CAP"]

#: delivery grouping window, seconds — arrivals within this span of a
#: group's opener ride one pooled event (same scale as the source
#: batching tolerance, :data:`repro.net.batching.TIMING_TOLERANCE`)
TRAIN_TOLERANCE = 200e-6
#: frames per delivery group before a new one is opened
TRAIN_CAP = 256


class _TrainGroup:
    """One pending delivery group for a destination port: parallel
    ``(train, index, arrival)`` columns."""

    __slots__ = ("port", "t0", "t_last", "trains", "idx", "times")

    def __init__(self, port: int, t0: float):
        self.port = port
        self.t0 = t0
        self.t_last = t0
        self.trains: list[Train] = []
        self.idx: list[int] = []
        self.times: list[float] = []


class DeliveryBatcher:
    """Coalesces a fabric's train deliveries into pooled events.

    Arrivals at a port are non-decreasing in time (its egress clock is
    FIFO), so each port has a single open group: an arrival within
    ``TRAIN_TOLERANCE`` of the group's opener joins it, anything later
    (or past ``TRAIN_CAP``) opens a new group.  Each group fires exactly
    one pooled callback at its *last* member's arrival — never earlier
    than any member, never padded past it — handing the device its
    ``(train, index)`` columns *and their exact per-frame arrival
    times*, so receivers account arrival-time semantics losslessly.
    The flush is scheduled at the opener's arrival and lazily chases
    the tail if the group grew meanwhile (one extra pooled event, no
    cancellation), so dispatch stays deterministic given the admission
    sequence.  Every station a train reaches takes whole groups
    (``receive_train``): only a card sends trains, and only to cards.
    """

    __slots__ = ("sim", "devices", "_groups")

    def __init__(self, sim: Simulator, devices: Sequence):
        self.sim = sim
        #: the fabric's port -> station list (read at dispatch time)
        self.devices = devices
        self._groups: list[_TrainGroup | None] = [None] * len(devices)

    def add_many(
        self, train: Train, deliveries: Sequence[tuple[int, int, float]]
    ) -> None:
        """Dispatch ``(port, index, at)`` deliveries of ``train``'s
        frames in the given order."""
        sim = self.sim
        now = sim.now
        groups = self._groups
        for port, i, at in deliveries:
            g = groups[port]
            if (
                g is not None
                and at - g.t0 <= TRAIN_TOLERANCE
                and len(g.idx) < TRAIN_CAP
            ):
                g.trains.append(train)
                g.idx.append(i)
                g.times.append(at)
                g.t_last = at
                continue
            g = groups[port] = _TrainGroup(port, at)
            g.trains.append(train)
            g.idx.append(i)
            g.times.append(at)
            sim.call_after(at - now, self._flush, g)

    def _flush(self, group: _TrainGroup) -> None:
        now = self.sim.now
        if group.t_last > now:
            # The group grew after its flush was scheduled: chase the
            # tail arrival instead of delivering early.
            self.sim.call_after(group.t_last - now, self._flush, group)
            return
        port = group.port
        if self._groups[port] is group:
            self._groups[port] = None
        self.devices[port].receive_train(group.trains, group.idx, group.times)


#: logical seconds of a train admitted per DES event.  Bulk admission
#: of *overlapping* trains interleaves at segment (not frame)
#: granularity, so a port clock never runs more than one slice of
#: cross-sender traffic ahead of global time — at line rate that is
#: ~25 KB of admission-order skew against a 128 KB tail-drop buffer,
#: which is why slicing keeps the drop ledger honest where whole-train
#: admission manufactured spurious overflows.  A single train's frames
#: stay in sequential order across its slices, so single-train
#: admission remains bit-exact at any slice width.
ADMIT_SLICE = 200e-6


def admit_train(fabric, uplink, train: Train) -> float:
    """Bulk-admit ``train`` on ``uplink`` at its per-frame send times.

    ``train.times`` must be non-decreasing and ``>= sim.now`` (the
    sender's own serialization schedule).  Admission proceeds in
    :data:`ADMIT_SLICE` segments — one DES event covers every frame
    whose send time falls within the slice; a continuation event is
    scheduled at the next frame's send time.  Returns the last send
    time.  Raises :class:`~repro.errors.NetworkError` on a faulted
    uplink or a fabric with staged component windows: trains are exact
    only where no fault can touch them, and the card never sends one
    there.
    """
    times = train.times
    if not times:
        return fabric.sim.now
    n = len(times)
    if any(len(getattr(train, name)) != n for name in Train.COLUMNS):
        raise ValueError(f"train mismatch: a column is not {n} frames long")
    if uplink.fault is not None or not fabric.fastpath_ok():
        raise NetworkError(
            f"uplink {uplink.name!r} cannot take a train: the fabric is faulted"
        )
    fabric.trains_fast += 1
    _admit_segment(fabric, uplink, train, 0)
    return times[-1]


def _admit_segment(fabric, uplink, train: Train, start: int) -> None:
    """Admit the slice of the train due within :data:`ADMIT_SLICE`."""
    sim = fabric.sim
    now = sim.now
    # ``times`` is non-decreasing: the slice ends at the first frame
    # due after the horizon.
    times = train.times
    end = bisect_right(times, now + ADMIT_SLICE, start)
    sink: list = []
    fabric._admit_slice(uplink, train, start, end, sink)
    batcher = fabric._batcher
    if batcher is None:
        batcher = fabric._batcher = DeliveryBatcher(sim, fabric._devices)
    batcher.add_many(train, sink)
    if end < len(times):
        sim.call_after(
            times[end] - now, _admit_segment, fabric, uplink, train, end
        )


# ---------------------------------------------------------------------------
# A/B equivalence harness (`python -m repro.net.flowclock --ab`)
# ---------------------------------------------------------------------------
class _TrainProbe:
    """Frame device recording (dst-visible) arrivals, train-capable."""

    def __init__(self, sim: Simulator, port: int):
        self.sim = sim
        self.port = port
        self.wire = None
        self.got: list[tuple[int, float, float]] = []

    def attach_wire(self, wire) -> None:
        self.wire = wire

    def receive_frame(self, frame: Frame) -> None:
        self.got.append((self.port, self.sim.now, frame.payload_bytes))

    def receive_train(
        self, trains: Sequence[Train], idx: Sequence[int], times: Sequence[float]
    ) -> None:
        # Record the exact per-frame arrival floats the batcher carried,
        # not the (later) flush time — that is the identity under test.
        for train, i, t in zip(trains, idx, times):
            self.got.append((self.port, t, train.payload_bytes[i]))


#: A/B time grid: dyadic constants, so ``base + i * intra`` round-trips
#: exactly through the scheduler's relative-delay arithmetic (the send
#: times are then bit-equal between the scheduled frame-level path and
#: the logical times bulk admission replays)
_AB_GAP = 2.0 ** -8     # ~3.9 ms between train starts: no overlap
_AB_INTRA = 2.0 ** -18  # ~3.8 us intra-train spacing: uplink chain engaged


def _exchange_trains(n: int, repeat: int = 2):
    """The scale suite's exchange shape: every station sends a train
    covering all peers ``repeat`` times (so destination egress clocks
    see intra-train contention), then an 8-sender incast burst — all
    trains admitted at one timestamp, grouped in train order on both
    paths — that overfills one egress buffer, so the tail-drop ledger
    is exercised inside trains.  Staggered trains never overlap — the
    regime where bulk admission is exact.

    Returns ``[(base_t, src, intra_gap, [(dst, size), ...]), ...]``.
    """
    trains = []
    for src in range(n):
        entries = []
        for j in range(repeat * (n - 1)):
            dst = (src + 1 + j % (n - 1)) % n
            size = 64 + (src * 131 + j * 17) % 1400
            entries.append((dst, size))
        trains.append((src * _AB_GAP, src, _AB_INTRA, entries))
    # Incast: 8 senders x 20 x 1400 B (~227 KB) at one egress port vs
    # the 128 KB gigabit buffer; send times all equal the burst start.
    # Senders ring the victim so some share its leaf on the fat-tree —
    # remote incast serializes through one spine downlink and never
    # overflows, but same-leaf senders hit the egress clock directly.
    burst_at = n * _AB_GAP
    victim = n // 2
    for delta in range(-4, 5):
        src = (victim + delta) % n
        if src == victim or src == 0:
            continue
        trains.append((burst_at, src, 0.0, [(victim, 1400)] * 20))
    return trains


def _replay(builder, opts, n: int, bulk: bool):
    """Run the exchange pattern one way; return (arrivals, ledger, fabric)."""
    from ..net.addresses import MacAddress

    sim = Simulator()
    stations = [_TrainProbe(sim, p) for p in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    for base_t, src, intra, entries in _exchange_trains(n):
        wire = stations[src].wire

        def fire(wire=wire, src=src, base_t=base_t, intra=intra, entries=entries):
            times = [base_t + i * intra for i in range(len(entries))]
            if bulk:
                train = Train(addrs[src], headers=8)
                for (dst, size), t in zip(entries, times):
                    train.append(addrs[dst], size, t)
                wire.send_train(train)
            else:
                # Frame-level sends at the train's send times: immediate
                # ones inline (train order), future ones per frame.
                now = sim.now
                for (dst, size), t in zip(entries, times):
                    frame = Frame(addrs[src], addrs[dst], payload_bytes=size, headers=8)
                    if t <= now:
                        wire.send(frame)
                    else:
                        sim.call_after(t - now, wire.send, frame)

        sim.call_after(base_t, fire)
    sim.run()
    arrivals = sorted(got for st in stations for got in st.got)
    return arrivals, fabric.conservation_counters(), fabric


def _ab_main(argv=None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.net.flowclock",
        description="A/B: bulk flow-clock admission vs frame-level sends",
    )
    ap.add_argument("--ab", action="store_true", help="run the equivalence check")
    ap.add_argument("--n", type=int, default=32, help="stations (default 32)")
    args = ap.parse_args(argv)
    if not args.ab:
        ap.error("nothing to do (pass --ab)")
    from .topology import build_aggregate_star, build_fattree, build_torus

    n = args.n
    cases = [
        ("aggregate", build_aggregate_star, {}),
        ("fattree", build_fattree, {}),
        ("fattree-oversub2", build_fattree, {"oversub": 2}),
        ("torus", build_torus, {}),
    ]
    failed = False
    for label, builder, opts in cases:
        ref, ref_ledger, ref_fabric = _replay(builder, opts, n, bulk=False)
        got, ledger, fabric = _replay(builder, opts, n, bulk=True)
        ok = got == ref and ledger == ref_ledger
        events = (ref_fabric.sim.event_count, fabric.sim.event_count)
        # The fast path must actually have run (and cut events).
        mode_ok = fabric.trains_fast > 0 and events[1] < events[0]
        status = "PASS" if ok and mode_ok else "FAIL"
        failed = failed or status == "FAIL"
        dropped = ref_ledger["frames_dropped"]
        print(
            f"[ab] {label:18s} {status}  n={n} arrivals={len(ref)} "
            f"dropped={dropped} events {events[0]} -> {events[1]}"
            + ("" if ok else "  (arrivals or ledgers diverge)")
            + (
                ""
                if mode_ok
                else "  (fast path did not engage as expected)"
            )
        )
    print(f"[ab] bulk-admission equivalence: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(_ab_main())
