"""One registry of reference/fast pairs.

Every number this repo reports comes from a fast path: the compiled
scheduler, bulk train admission, the float-clock fabrics, and the
compiled admission, card and sort loops.  Each is trusted because an
entry here holds it equal to its reference.  An entry is a
:class:`Pair`: a name, a scenario (a fixed list of cases or a
hypothesis strategy), the reference run and the fast run of one case,
and a comparator that asserts on the two results.  :func:`test_pair`
runs every entry; one whose fast side is not built skips.

The schedulers' heap side is every new ``Simulator`` with
``repro.sim.sched._csched`` set to ``None``, so it takes the
:class:`~repro.sim.sched.HeapScheduler` fallback.

``test_topology.py`` and ``test_aggregate_fabric.py`` import the fabric
scenarios (:func:`_replay`, :func:`_ab_arrivals`) from here.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ProtocolError
from repro.inic import ACEII_PROTOTYPE, INICCard, ScatterOp, SendBlock
from repro.inic import card as card_module
from repro.net import Frame, GIGABIT_ETHERNET, MacAddress, Train, build_star
from repro.net.topology import (
    _AggregateUplink,
    build_aggregate_star,
    build_fattree,
    build_torus,
)
from repro.protocols import TransferPlan
from repro.sim import HeapScheduler, Simulator, engine, sched

from .test_inic_card import (
    FAST_CORE,
    _card_ledger,
    _fastpath_card_ledger,
    _rate_design,
)
from .test_sim_sched import _drive, _script
from .test_sort_kernels import _EDGE_KEYS
from .test_topology import (
    _DIFF_TIMING,
    _diff_fabric,
    _diff_scenarios,
    _diff_state,
    _diff_train,
    _reference_fabric,
)


@dataclass(frozen=True)
class Pair:
    """A fast path and the reference it must equal."""

    name: str
    #: a sequence of cases, or a hypothesis strategy drawing them
    scenario: Any
    reference: Callable[[Any], Any]
    fast: Callable[[Any], Any]
    #: ``compare(case, reference_result, fast_result)`` asserts
    compare: Callable[[Any, Any, Any], None]
    #: module the fast side needs; the entry skips without it
    needs: Optional[str] = None
    examples: int = 100


def _equal(case, ref, fast):
    assert fast == ref, f"fast side diverges on {case!r}"


def _traced(run):
    """``run`` returning ``(result, (when, prio, seq, type) stream)``."""

    def traced(case):
        trace = []
        engine.set_trace_sink(trace)
        try:
            return run(case), trace
        finally:
            engine.set_trace_sink(None)

    return traced


def _on_heap(run):
    """``run`` with every new Simulator on the reference heap."""

    def on_heap(case):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(sched, "_csched", None)
            return run(case)

    return on_heap


# --- schedulers -------------------------------------------------------------------------
def _pops(make):
    """The ``(when, prio, seq)`` pop sequence of a ``(base, ops)`` script."""
    return lambda script: _drive(make(), *script)


def _native():
    return sched._csched.NativeScheduler()


def _perf_suite(scale):
    """The perf suite's ``{point: (events, makespan)}`` at ``scale``."""
    from repro.bench.harness import Scale
    from repro.bench.sweep import _RUNNERS, perf_points

    results = {}
    for spec in perf_points(Scale.by_name(scale)):
        r = _RUNNERS[spec.kind](spec.params)
        results[spec.name] = (r["events"], r["makespan"])
    return results


def _same_stream(case, ref, fast):
    """Equal results and an equal ``(when, prio, seq, type)`` stream."""
    (want, want_trace), (got, trace) = ref, fast
    assert got == want, f"{case!r}: results diverge"
    assert len(trace) == len(want_trace) > 0, f"{case!r}: stream lengths differ"
    first = next((i for i, (a, b) in enumerate(zip(want_trace, trace)) if a != b), None)
    assert first is None, (
        f"{case!r}: first divergence at event {first}: "
        f"{want_trace[first]} != {trace[first]}"
    )


# --- dispatch: the compiled run loop and pooled calls ------------------------------------
#: coarse delays, so same-time ties (and delay-0 entries) abound
_DT = (0.0, 0.0, 0.5, 1.0, 2.5)

_dt = st.sampled_from(_DT)
_none = st.just(())

#: one op of a dispatch script; ops in ``then`` run when their parent fires
_dispatch_op = st.recursive(
    st.one_of(
        st.tuples(st.just("after"), _dt, _none),
        st.tuples(st.just("at"), _dt, _none),
        st.tuples(st.just("urgent"), _none),
        st.tuples(st.just("timeout"), _dt, st.booleans()),
        st.tuples(st.just("any_of"), st.lists(_dt, max_size=3)),
        st.tuples(st.just("fail"), _dt, st.booleans()),
        st.tuples(st.just("raise"), _dt),
        st.tuples(st.just("cancel"), st.integers(0, 15)),
        st.tuples(st.just("bad"), st.sampled_from(("after", "at", "sleep"))),
    ),
    lambda ops: st.one_of(
        st.tuples(st.just("after"), _dt, st.lists(ops, max_size=3)),
        st.tuples(st.just("at"), _dt, st.lists(ops, max_size=3)),
        st.tuples(st.just("urgent"), st.lists(ops, max_size=3)),
        st.tuples(
            st.just("process"), st.lists(_dt, max_size=3),
            st.lists(ops, max_size=3), st.booleans(),
        ),
    ),
    max_leaves=24,
)

#: ``run(until=...)``: None, a float horizon this far ahead, a target
#: timeout, a target that fails, or a target that never fires
_until = st.one_of(
    st.none(),
    st.tuples(st.just("float"), _dt),
    st.tuples(st.just("timeout"), _dt),
    st.tuples(st.just("fails"), _dt),
    st.tuples(st.just("never")),
)

#: ``(tiebreak seed, [(ops, until, max_events), ...])``
_dispatch_scripts = st.tuples(
    st.sampled_from((None, 1, 7)),
    st.lists(
        st.tuples(
            st.lists(_dispatch_op, max_size=6), _until,
            st.one_of(st.none(), st.integers(1, 30)),
        ),
        min_size=1, max_size=3,
    ),
)


class _Dispatch:
    """Play a dispatch script on one Simulator, logging what fires."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.log: list = []
        self.handles: list = []  # ("cb" | "ev", handle), fired ones kept
        self.n = 0

    def do(self, ops) -> None:
        for op in ops:
            self.op(op)

    def op(self, op) -> None:
        sim, log = self.sim, self.log
        self.n += 1
        n, kind = self.n, op[0]
        if kind == "after":
            self.handles.append(("cb", sim.call_after(op[1], self.fire, n, op[2])))
        elif kind == "at":
            self.handles.append(("cb", sim.call_at(sim.now + op[1], self.fire, n, op[2])))
        elif kind == "urgent":
            self.handles.append(("cb", sim.call_urgent(self.fire, n, op[1])))
        elif kind == "process":
            sim.process(self.body(n, *op[1:]))
        elif kind == "timeout":
            t = sim.timeout(op[1], n)
            self.handles.append(("ev", t))
            t.add_callback(self.seen)
            if op[2]:  # a callback that appends to the list being fired
                callbacks = t.callbacks
                t.add_callback(lambda ev: callbacks.append(self.seen))
        elif kind == "any_of":
            events = [sim.timeout(d, (n, i)) for i, d in enumerate(op[1])]
            sim.any_of(events).add_callback(self.seen)
        elif kind == "fail":
            ev = sim.event()
            sim.call_after(op[1], ev.fail, KeyError(f"failed {n}"))
            if op[2]:
                ev.add_callback(self.seen)
            self.handles.append(("ev", ev))
        elif kind == "raise":
            sim.call_after(op[1], self.boom, n)
        elif kind == "cancel":
            if self.handles:
                what, h = self.handles[op[1] % len(self.handles)]
                done = sim.cancel(h) if what == "ev" else sim.cancel_callback(h)
                log.append((n, "cancel", done))
        else:  # "bad": each schedules in the past
            try:
                if op[1] == "after":
                    sim.call_after(-1.0, self.fire, n, ())
                elif op[1] == "at":
                    sim.call_at(sim.now - 1.0, self.fire, n, ())
                else:
                    sim.sleep(-0.5)
            except Exception as exc:
                log.append((n, "bad", type(exc).__name__, str(exc)))

    def fire(self, n, then) -> None:
        self.log.append((n, "fire", self.sim.now))
        self.do(then)

    def seen(self, ev) -> None:
        self.log.append(("seen", self.sim.now, _outcome(ev)))

    def boom(self, n) -> None:
        raise ValueError(f"boom {n}")

    def body(self, n, delays, then, crash):
        for d in delays:
            value = yield self.sim.sleep(d)
            self.log.append((n, "woke", self.sim.now, value))
        self.do(then)
        if crash:
            raise RuntimeError(f"process {n} crashed")
        return n


def _outcome(ev):
    value = ev._value
    if not ev._ok:
        return ("failed", type(value).__name__, str(value))
    if isinstance(value, dict):  # AnyOf: the values of the fired events
        return sorted(value.values())
    return value


def _play_dispatch(script):
    """A script's log, per-run outcomes and end state, the stream traced."""
    seed, runs = script
    engine._set_tiebreak_seed(seed)
    try:
        sim = Simulator()
    finally:
        engine._set_tiebreak_seed(None)
    play = _Dispatch(sim)
    outcomes = []
    for ops, until, max_events in runs:
        play.do(ops)
        if until is not None:
            kind = until[0]
            if kind == "float":
                until = sim.now + until[1]
            elif kind == "timeout":
                until = sim.timeout(until[1], "target")
            else:
                target = sim.event()
                if kind == "fails":
                    sim.call_after(until[1], target.fail, OSError("target failed"))
                until = target
        try:
            outcome = ("returned", sim.run(until=until, max_events=max_events))
        except Exception as exc:
            outcome = ("raised", type(exc).__name__, str(exc))
        stats = sim.sched_stats()
        outcomes.append((
            outcome, sim.now, sim.event_count, stats["live"], stats["cancels"],
            len(sim._callback_pool), len(sim._timeout_pool),
        ))
    return play.log, outcomes


def _compiled_dispatch(script):
    assert Simulator().sched_stats()["compiled"], "Simulator is not on _csched"
    return _play_dispatch(script)


def _same_dispatch(case, ref, fast):
    """Equal logs, outcomes and ``(when, prio, seq, type)`` streams."""
    (want, want_trace), (got, trace) = ref, fast
    assert got == want, f"{case!r}: results diverge"
    assert trace == want_trace, f"{case!r}: dispatch streams diverge"


# --- fabrics ----------------------------------------------------------------------------
#: ``(label, builder, options)`` of the float-clock fabrics
FABRICS = (
    ("aggregate", build_aggregate_star, {}),
    ("fattree", build_fattree, {}),
    ("fattree-oversub2", build_fattree, {"oversub": 2}),
    ("torus", build_torus, {}),
)


class _Probe:
    """Frame device recording ``(port, arrival, payload bytes)``; takes
    trains at the exact per-frame arrival floats the batcher carries,
    not the (later) flush time — that is the identity under test."""

    def __init__(self, sim: Simulator, port: int):
        self.sim = sim
        self.port = port
        self.wire = None
        self.got: list[tuple[int, float, int]] = []

    def attach_wire(self, wire) -> None:
        self.wire = wire

    def receive_frame(self, frame: Frame) -> None:
        self.got.append((self.port, self.sim.now, frame.payload_bytes))

    def receive_train(self, trains, idx, times) -> None:
        for train, i, t in zip(trains, idx, times):
            self.got.append((self.port, t, train.payload_bytes[i]))


def _probed(builder, n: int, **opts):
    """``(sim, stations, addresses, fabric)``: ``n`` probes on ``builder``."""
    sim = Simulator()
    stations = [_Probe(sim, p) for p in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    return sim, stations, addrs, fabric


def _arrivals(stations):
    return sorted(got for st in stations for got in st.got)


def _ab_arrivals(builder, n: int, frames: int, gap: float, **opts):
    """Drive a deterministic low-load pattern; return sorted arrivals.

    Senders are scheduled ``gap`` apart (far above a frame's
    serialization time), so no two transfers ever share an uplink, a
    link clock, or an egress port: every fabric must produce the
    *identical* float arrival times if its base path timing matches the
    wire star.  Returns ``(sorted [(dst, arrival, bytes), ...], fabric)``.
    """
    sim, stations, addrs, fabric = _probed(builder, n, **opts)
    for i in range(frames):
        src = (i * 7) % n
        dst = (i * 13 + 5) % n
        if src == dst:
            dst = (dst + 1) % n
        size = 64 + (i * 191) % 1400

        def fire(src=src, dst=dst, size=size):
            stations[src].wire.send(
                Frame(addrs[src], addrs[dst], payload_bytes=size, headers=8)
            )

        sim.call_after(i * gap, fire)
    sim.run()
    return _arrivals(stations), fabric


#: exchange time grid: dyadic constants, so ``base + i * intra``
#: round-trips exactly through the scheduler's relative-delay arithmetic
#: (the send times are then bit-equal between the scheduled frame-level
#: path and the logical times bulk admission replays)
_GAP = 2.0 ** -8     # ~3.9 ms between train starts: no overlap
_INTRA = 2.0 ** -18  # ~3.8 us intra-train spacing: uplink chain engaged


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
        trains.append((src * _GAP, src, _INTRA, entries))
    # Incast: 8 senders x 20 x 1400 B (~227 KB) at one egress port vs
    # the 128 KB gigabit buffer; send times all equal the burst start.
    # Senders ring the victim so some share its leaf on the fat-tree —
    # remote incast serializes through one spine downlink and never
    # overflows, but same-leaf senders hit the egress clock directly.
    burst_at = n * _GAP
    victim = n // 2
    for delta in range(-4, 5):
        src = (victim + delta) % n
        if src == victim or src == 0:
            continue
        trains.append((burst_at, src, 0.0, [(victim, 1400)] * 20))
    return trains


def _replay(builder, opts, n: int, bulk: bool):
    """Run the exchange pattern one way; return (arrivals, ledger, fabric)."""
    sim, stations, addrs, fabric = _probed(builder, n, **opts)
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
    return _arrivals(stations), fabric.conservation_counters(), fabric


def _same_exchange(case, ref, fast):
    """Equal arrivals and ledgers, with the fast path engaged and
    cheaper in events."""
    (want, want_ledger, ref_fabric), (got, ledger, fabric) = ref, fast
    label = f"{case[0]} n={case[3]}"
    assert got == want, f"{label}: arrival floats diverge"
    assert ledger == want_ledger, f"{label}: conservation ledgers diverge"
    assert fabric.trains_fast > 0, f"{label}: no train was admitted"
    assert fabric.sim.event_count < ref_fabric.sim.event_count, (
        f"{label}: bulk admission did not cut events"
    )


#: low-load star probe: stations, transfers and spacing (>> any
#: serialization time at 1 Gb/s, so no two transfers contend)
_STAR_PROBE = (64, 512, 1e-3)


def _same_as_the_wire_star(case, ref, fast):
    """Float-for-float arrivals; the star is one hop by construction,
    the hierarchies must actually exercise multi-hop paths."""
    (want, _), (got, fabric) = ref, fast
    assert got == want, f"{case[0]}: arrival times diverge from the wire star"
    one_hop = fabric.hop_stats()["max_hops"] == 1
    assert one_hop == (case[0] == "aggregate"), f"{case[0]}: unexpected hop count"


# --- compiled slice loop ----------------------------------------------------------------
#: gigabit timing: nothing is dyadic, so every float operation rounds
#: and any reordering of one shows in the low bits
_GIGABIT_TIMING = {
    "bandwidth": GIGABIT_ETHERNET.bandwidth,
    "propagation_delay": GIGABIT_ETHERNET.propagation_delay,
    "forwarding_latency": GIGABIT_ETHERNET.switch_latency,
}


def _slice_admission(make_fabric):
    """Admit a ``(_diff_scenarios() case, gigabit)`` draw's trains slice
    by slice; return ``(compiled, repr of the fabric state)``: every
    clock, every per-clock ledger column, the uplink clocks and
    counters, the routing counters and each sink entry (``repr`` tells
    ``-0.0`` from ``0.0``).  The trains cover send-time ties (gap 0),
    same-leaf and remote destinations, a route memo that starts cold,
    and buffers on the tail-drop boundary.  Dyadic timing hits that
    boundary exactly; gigabit timing rounds every operation."""

    def run(case):
        (kind, n, buffer_bytes, trains), gigabit = case
        timing, unit, step = (
            (_GIGABIT_TIMING, 1.7e-5, 1.3e-6) if gigabit
            else (_DIFF_TIMING, 2.0 ** -16, 2.0 ** -20)
        )
        fabric = make_fabric(kind, n, buffer_bytes, timing)
        out = []
        for k, (src, start, gap, entries) in enumerate(trains):
            times = [start * unit + i * gap * step for i in range(len(entries))]
            train = _diff_train(src, entries, times)
            sink = []
            fabric._admit_slice(fabric.uplink(src), train, 0, len(train), sink)
            out += [(k, port, i, at) for port, i, at in sink]
        return fabric.compiled, repr(_diff_state(fabric, out))

    return run


def _same_slice_state(case, ref, fast):
    assert fast[0] and not ref[0], "the two sides ran the same slice loop"
    assert fast[1] == ref[1], "the compiled slice loop left a different state"


# --- compiled card-train loops ----------------------------------------------------------
#: the Python reference of each compiled card-train loop
_CARD_REFERENCE = {
    "_scatter_blocks": INICCard._scatter_blocks,
    "_group_bytes": INICCard._group_bytes,
    "_account_frames": INICCard._account_frames,
}


def _card_reference(run):
    """``run`` with the reference card-train loops switched in."""

    def reference(case):
        with pytest.MonkeyPatch.context() as m:
            for name, fn in _CARD_REFERENCE.items():
                m.setattr(card_module, name, fn)
            return run(case)

    return reference


def _columns(train):
    return (train.src, train.op, train.headers, train.kind) + tuple(
        list(getattr(train, name)) for name in Train.COLUMNS
    )


def _gather_state(op):
    plan = op.plan
    return (
        plan.received,
        plan._pending,
        plan._total_received,
        plan.surplus_bytes,
        plan.complete.triggered,
        op.pending_delivery,
        op.delivered_bytes,
        op._sources,
        op._items,
        op._payload_seen,
        op.accumulator,
    )


def _backlog(card):
    return {
        tag: [
            (f.src, f.dst, f.payload_bytes, f.frame_count, f.kind, f.payload, f.meta)
            for f in frames
        ]
        for tag, frames in card._pending_rx.items()
    }


#: a fast-path scatter: any block mix (multi-chunk blocks, self-addressed
#: ones, a block that is not a ``SendBlock``), under any window (``None``:
#: the card's), from a cold or warm row memo and a busy or idle bus
_scatter_cases = st.tuples(
    st.lists(
        st.tuples(
            st.integers(0, 2),  # destination card (0: self-addressed)
            st.integers(1, 40_000),  # bytes: multi-chunk, a short last chunk
            st.sampled_from(["block", "block", "block", "namespace"]),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([None, 4096, 10_000, 64 * 1024]),  # window
    st.booleans(),  # warm row memo
    st.sampled_from([0.0, 1e-4]),  # bus busy ahead
)


def _scatter(case):
    """One fast-path scatter to three cards: the wire and local trains,
    completion time, card and bus ledgers, memo rows, and what the
    receivers accounted."""
    blocks, window, warm, busy_ahead = case
    sim = Simulator()
    cards = [
        INICCard(sim, MacAddress(i), spec=ACEII_PROTOTYPE, name=f"inic{i}")
        for i in range(3)
    ]
    build_fattree(sim, [(card.address, card) for card in cards])
    sender = cards[0]
    sim.process(sender.configure(_rate_design("core", FAST_CORE)))
    sim.run()
    resolved = window or sender.spec.flow_window
    if warm:
        for _, nbytes, _ in blocks:
            sender._fast_rows(nbytes, resolved)
    sender.host_tx._busy_until = sim.now + busy_ahead
    posted = []
    for k, (dst, nbytes, kind) in enumerate(blocks):
        make = SendBlock if kind == "block" else SimpleNamespace
        posted.append(make(dst=MacAddress(dst), nbytes=nbytes, data=("data", k)))
    gathers = [
        card.post_gather(
            7,
            TransferPlan(
                sim,
                {0: sum(n for dst, n, _ in blocks if dst == rank)},
                name=f"g{rank}",
            ),
        )
        for rank, card in enumerate(cards)
    ]
    wire, local = [], []
    send_train = _AggregateUplink.send_train
    deliver = INICCard._fast_local_deliver
    op = ScatterOp(sim, 7, posted, window, train=True)
    sent = []
    op.sent.callbacks.append(lambda _: sent.append(sim.now))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(
            _AggregateUplink,
            "send_train",
            lambda uplink, train: (wire.append(train), send_train(uplink, train)),
        )
        m.setattr(
            INICCard,
            "_fast_local_deliver",
            lambda card, train, i: (local.append((train, i)), deliver(card, train, i)),
        )
        sender._run_scatter_fast(op)
        sim.run()
    return (
        [_columns(train) for train in wire],
        [(_columns(train), i) for train, i in local],
        sent,
        sender._mem_in_use,
        dict(sender._row_cache),
        [_card_ledger(card) for card in cards],
        [_gather_state(op) for op in gathers],
        [op.done.processed for op in gathers],
    )


def _same_scatter(case, ref, fast):
    _same_stream(case, ref, fast)
    assert fast[0][2], "the scatter never completed"


class _Sum:
    """A reduce core that adds payloads."""

    def apply(self, payload, accumulator=None):
        return payload if accumulator is None else accumulator + payload


@st.composite
def _receive_cases(draw):
    """Gathers and the frames one card receives for them: per tag a
    gather that is posted or not (its frames are parked), plain,
    deduping, reducing or surplus-tolerant, expecting bytes from a few
    senders; per (sender, tag) a train whose frames split the expected
    bytes, sometimes with a surplus frame; sometimes a sender no plan
    expects, and sometimes a frame with a non-int byte count.  The
    frames arrive shuffled, in consecutive groups."""
    n_senders = draw(st.integers(1, 4))
    gathers = {}
    for tag in (1, 2, 3):
        gathers[tag] = (
            draw(st.booleans()) or tag == 1,  # posted
            draw(st.sampled_from(["plain"] * 3 + ["dedupe", "reduce", "surplus"])),
            {s: draw(st.integers(1, 5000)) for s in range(n_senders)},
        )
    senders = list(range(n_senders))
    if draw(st.integers(0, 7)) == 0:
        senders.append(9)  # no plan expects it
    trains = []
    for src in senders:
        for tag, (_, _, expected) in gathers.items():
            want = expected.get(src, draw(st.integers(1, 3000)))
            cuts = sorted(set(draw(st.lists(st.integers(1, want), max_size=3))))
            cuts = [c for c in cuts if c < want]
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [want])]
            if draw(st.integers(0, 7)) == 0:
                sizes.append(draw(st.integers(1, 500)))  # surplus
            # (bytes, packets, last, payload): a payload rides the last
            # frame, and now and then an earlier one (which stores nothing)
            frames = []
            for k, size in enumerate(sizes):
                last = k == len(sizes) - 1
                carries = last or draw(st.integers(0, 3)) == 0
                payload = 1000 * src + 10 * tag + k if carries else None
                frames.append((size, draw(st.integers(1, 3)), last, payload))
            trains.append((src, tag, frames))
    frames = [(t, i) for t, (_, _, f) in enumerate(trains) for i in range(len(f))]
    order = draw(st.permutations(frames))
    n_cut = draw(st.integers(0, len(order)))
    splits = sorted(draw(st.lists(st.integers(0, n_cut), max_size=2)))
    odd = draw(st.integers(0, 9)) == 0 and n_cut > 0
    return gathers, trains, order[:n_cut], splits, odd


def _receive(case):
    """Deliver a ``_receive_cases`` draw to one card in its groups, then
    post the missing gathers (each replays its parked frames); return the
    card's ledger, memory, gathers and backlog, or the error raised."""
    gathers, train_specs, order, splits, odd = case
    sim = Simulator()
    card = INICCard(sim, MacAddress(5), spec=ACEII_PROTOTYPE, name="rx")
    posted = {}
    for tag, (is_posted, kind, expected) in gathers.items():
        if not is_posted:
            continue
        op = card.post_gather(
            tag,
            TransferPlan(sim, expected, name=f"plan{tag}"),
            reduce_core=_Sum() if kind == "reduce" else None,
        )
        op.dedupe_payloads = kind == "dedupe"
        op.plan.tolerate_surplus = kind == "surplus"
        posted[tag] = op
    trains = []
    for src, tag, frames in train_specs:
        train = Train(MacAddress(src), 8, kind="inic", op=tag)
        for size, count, last, payload in frames:
            train.append(
                MacAddress(5), size, 0.0, frame_count=count,
                payload=payload, last=last, total=sum(f[0] for f in frames),
            )
        trains.append(train)
    if odd:
        t, i = order[len(order) // 2]
        trains[t].payload_bytes[i] = np.int64(trains[t].payload_bytes[i])
    group = [(trains[t], i) for t, i in order]
    try:
        for a, b in zip([0] + splits, splits + [len(group)]):
            part = group[a:b]
            if part:
                card.receive_train(
                    [t for t, _ in part], [i for _, i in part], [0.0] * len(part)
                )
        sim.run(until=1e-3)
        for tag, (is_posted, _, expected) in gathers.items():
            if not is_posted:
                posted[tag] = card.post_gather(tag, TransferPlan(sim, expected))
        sim.run(until=2e-3)
    except ProtocolError as exc:
        return type(exc), str(exc)
    return (
        _card_ledger(card),
        card._mem_in_use,
        {tag: _gather_state(op) for tag, op in posted.items()},
        _backlog(card),
    )


def _same_receive(case, ref, fast):
    """Equal results; equal event streams unless both raised (the
    counters are not compared after a raise)."""
    (want, want_trace), (got, trace) = ref, fast
    assert got == want
    if not isinstance(want[0], type):
        assert trace == want_trace


# --- compiled bucket scatter ------------------------------------------------------------
@st.composite
def _window_cases(draw):
    """Keys, a bit window (``start_bit``, ``n_buckets``) and a layout."""
    bits = draw(st.integers(min_value=1, max_value=10))
    start = draw(st.integers(min_value=0, max_value=32 - bits))
    shift = 32 - start - bits
    ids = draw(st.lists(st.integers(0, 2**bits - 1), min_size=1, max_size=8))
    # Keys at and beside the window's bucket edges, and keys with only
    # the bit above the window or only the bits below it set.
    near = [(b << shift) + d for b in ids for d in (-1, 0, 1)]
    near += [1 << (shift + bits), (1 << shift) - 1]
    specials = _EDGE_KEYS + [x % 2**32 for x in near]
    specials += [~x % 2**32 for x in specials]
    keys = draw(
        arrays(
            dtype=np.uint32,
            shape=st.integers(min_value=0, max_value=400),
            elements=st.one_of(
                st.sampled_from(specials),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
        )
    )
    layout = draw(st.sampled_from(["contiguous", "shard", "strided", "reversed"]))
    return keys, start, 2**bits, layout


def _lay_out(keys, layout):
    """``keys`` as a contiguous array, a read-only view inside a larger
    buffer (as ``split_keys`` hands out), or a strided view."""
    if layout == "contiguous":
        return keys
    if layout == "shard":
        host = np.concatenate([keys[:3], keys, keys[:5]])
        view = host[3 : 3 + keys.size]
        view.flags.writeable = False
        return view
    if layout == "strided":
        return np.repeat(keys, 3)[::3]
    return np.repeat(keys[::-1], 3)[::-3]  # negative stride, same keys


def _binning(split):
    """Bin a ``_window_cases`` draw with ``split(keys, start, n_buckets)``;
    return each bucket's dtype, shape, bytes and whether it shares the
    keys' memory, and whether the keys were left untouched."""

    def run(case):
        keys, start, n_buckets, layout = case
        a = _lay_out(keys, layout)
        before = a.tobytes()
        buckets = split(a, start, n_buckets)
        return [
            (b.dtype, b.shape, b.tobytes(), np.shares_memory(b, a)) for b in buckets
        ], a.tobytes() == before

    return run


def _numpy_split(keys, start, n_buckets):
    from repro.apps.sort import bucketsort

    shift = 32 - start - (n_buckets.bit_length() - 1)
    return bucketsort._split_by_bits_numpy(keys, shift, n_buckets)


def _compiled_split(keys, start, n_buckets):
    from repro.apps.sort import bucketsort

    assert bucketsort.compiled, "split_by_bits bins with the numpy body"
    return bucketsort.split_by_bits(keys, start, n_buckets)


def _same_buckets(case, ref, fast):
    _equal(case, ref, fast)
    buckets, untouched = fast
    assert len(buckets) == case[2] and untouched
    assert all(b[0] == np.uint32 and not b[3] for b in buckets)


# --- the registry -----------------------------------------------------------------------
PAIRS = (
    # scheduler: the compiled heap pops what the reference heap pops
    Pair(
        "scheduler-ops", _script,
        _pops(HeapScheduler), _pops(_native), _equal,
        needs="repro.sim._csched", examples=150,
    ),
    Pair(
        "scheduler-perf-suite", ["ci"],
        _on_heap(_traced(_perf_suite)), _traced(_perf_suite), _same_stream,
        needs="repro.sim._csched",
    ),
    # dispatch: the compiled run loop and pooled calls vs the Python ones
    Pair(
        "dispatch", _dispatch_scripts,
        _on_heap(_traced(_play_dispatch)), _traced(_compiled_dispatch),
        _same_dispatch, needs="repro.sim._csched", examples=300,
    ),
    # admission: bulk trains vs frame-level sends
    Pair(
        "admission",
        [(label, builder, opts, n) for n in (32, 64) for label, builder, opts in FABRICS],
        lambda c: _replay(c[1], c[2], c[3], bulk=False),
        lambda c: _replay(c[1], c[2], c[3], bulk=True),
        _same_exchange,
    ),
    # stars: the full wire star vs every float-clock fabric at low load
    Pair(
        "stars", FABRICS,
        lambda c: _ab_arrivals(build_star, *_STAR_PROBE),
        lambda c: _ab_arrivals(c[1], *_STAR_PROBE, **c[2]),
        _same_as_the_wire_star,
    ),
    # compiled kernels vs the Python (or numpy) bodies they mirror
    Pair(
        "cadmit", st.tuples(_diff_scenarios(), st.booleans()),
        _slice_admission(_reference_fabric), _slice_admission(_diff_fabric),
        _same_slice_state, needs="repro.net._cadmit", examples=150,
    ),
    Pair(
        "ctrain-scatter", _scatter_cases,
        _card_reference(_traced(_scatter)), _traced(_scatter), _same_scatter,
        needs="repro.inic._ctrain", examples=60,
    ),
    Pair(
        "ctrain-receive", _receive_cases(),
        _card_reference(_traced(_receive)), _traced(_receive), _same_receive,
        needs="repro.inic._ctrain", examples=150,
    ),
    # a p=16 fast-path FFT and sort: makespan, events, card rows, stream
    Pair(
        "ctrain-apps", ["fft", "sort"],
        _card_reference(_traced(_fastpath_card_ledger)),
        _traced(_fastpath_card_ledger), _same_stream,
        needs="repro.inic._ctrain",
    ),
    Pair(
        "cbucket", _window_cases(),
        _binning(_numpy_split), _binning(_compiled_split), _same_buckets,
        needs="repro.apps.sort._cbucket", examples=200,
    ),
)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: pair.name)
def test_pair(pair):
    if pair.needs:
        pytest.importorskip(pair.needs)

    def check(case):
        pair.compare(case, pair.reference(case), pair.fast(case))

    if isinstance(pair.scenario, st.SearchStrategy):
        settings(max_examples=pair.examples, deadline=None)(given(pair.scenario)(check))()
    else:
        for case in pair.scenario:
            check(case)
