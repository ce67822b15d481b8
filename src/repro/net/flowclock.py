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
trains do not overlap (the staggered phase of the ``admission`` pair in
``tests/test_pairs.py``) equality is exact to the last bit.  Under overlap it is approximate, and the skew
is *not* bounded by one slice: queueing behind a shifted frame carries
the shift downstream.  ``tests/test_topology.py`` measures it with 300
MTU frames per sender.  At ~40% uplink load the largest per-frame skew
is 1.02 slices and the drop ledgers match.  Near line rate it reaches
5-24 slices, and on the tail-dropping fabrics the ledgers differ.
The frame-level model (``Experiment().fastpath(False)``) is exact.

The ``admission`` entries of the pair registry (``tests/test_pairs.py``)
replay the scale suite's exchange patterns frame-level vs bulk on every
fabric and diff arrival floats and conservation ledgers exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from ..errors import NetworkError
from ..sim.engine import Simulator
from .packet import Train

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
