"""The compiled card-train loops (``repro/inic/_ctrain.c``) against the
Python reference they mirror.

Each test runs one scenario twice, on two fresh simulators: once with
the compiled scatter and receive loops and once with the reference
methods (``INICCard._scatter_blocks``, ``_group_bytes`` and
``_account_frames``) switched in.  The runs must agree on the card
counters, the memory gauge, the bus ledger, the trains' columns, every
gather's plan, columns and backlog, and the ``(when, prio, seq, type)``
stream; a run that raises must raise the same error.  Skipped when the
extension is not built.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("repro.inic._ctrain")

from repro.errors import ProtocolError  # noqa: E402
from repro.inic import ACEII_PROTOTYPE, INICCard, ScatterOp, SendBlock  # noqa: E402
from repro.inic import card as card_module  # noqa: E402
from repro.net import MacAddress, Train  # noqa: E402
from repro.net.topology import _AggregateUplink, build_fattree  # noqa: E402
from repro.protocols import TransferPlan  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.sim import engine  # noqa: E402

from .test_inic_card import (  # noqa: E402
    FAST_CORE,
    _card_ledger,
    _fastpath_card_ledger,
    _rate_design,
)

REFERENCE = {
    "_scatter_blocks": INICCard._scatter_blocks,
    "_group_bytes": INICCard._group_bytes,
    "_account_frames": INICCard._account_frames,
}


def _both(scenario):
    """``scenario()`` on the compiled loops, then on the reference, each
    with its event stream traced: ``[(result, trace), (result, trace)]``."""
    runs = []
    for compiled in (True, False):
        with pytest.MonkeyPatch.context() as m:
            if not compiled:
                for name, fn in REFERENCE.items():
                    m.setattr(card_module, name, fn)
            trace = []
            engine.set_trace_sink(trace)
            try:
                runs.append((scenario(), trace))
            finally:
                engine.set_trace_sink(None)
    return runs


def test_the_card_reports_its_compiled_loops():
    assert card_module.compiled is True
    assert card_module._scatter_blocks is card_module._ctrain.scatter_blocks
    assert card_module._account_frames is card_module._ctrain.account_frames


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


# --- scatter ----------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(
            st.integers(0, 2),  # destination card (0: self-addressed)
            st.integers(1, 40_000),  # bytes: multi-chunk, a short last chunk
            st.sampled_from(["block", "block", "block", "namespace"]),
        ),
        min_size=1,
        max_size=6,
    ),
    window=st.sampled_from([None, 4096, 10_000, 64 * 1024]),
    warm=st.booleans(),
    busy_ahead=st.sampled_from([0.0, 1e-4]),
)
def test_compiled_scatter_matches_the_reference(blocks, window, warm, busy_ahead):
    """A fast-path scatter of any block mix (multi-chunk blocks,
    self-addressed ones, a block that is not a ``SendBlock``), under any
    window (``None``: the card's), from a cold or warm row memo and a
    busy or idle bus, lays down the same wire and local trains, card and
    bus ledgers, memo rows and events on the compiled loop as on the
    reference, and the receivers account the same frames."""

    def scenario():
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
                lambda card, train, i: (
                    local.append((train, i)), deliver(card, train, i)
                ),
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

    (compiled, trace_c), (reference, trace_r) = _both(scenario)
    assert compiled == reference
    assert trace_c == trace_r
    assert compiled[2], "the scatter never completed"


# --- receive ----------------------------------------------------------------------------
class _Sum:
    """A reduce core that adds payloads."""

    def apply(self, payload, accumulator=None):
        return payload if accumulator is None else accumulator + payload


@st.composite
def receive_cases(draw):
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


@settings(max_examples=150, deadline=None)
@given(case=receive_cases())
def test_compiled_receive_matches_the_reference(case):
    """Groups mixing trains and gathers are accounted alike by the
    compiled loop and the reference: parked frames, deduping and
    reducing gathers, surplus under ``tolerate_surplus``, plans that
    complete mid-group (the completion events keep their order), and a
    frame of unexpected type.  An unknown sender or an overflow raises
    the same error (the counters are not compared after a raise)."""
    gathers, train_specs, order, splits, odd = case

    def scenario():
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
        error = None
        try:
            for a, b in zip([0] + splits, splits + [len(group)]):
                part = group[a:b]
                if part:
                    card.receive_train(
                        [t for t, _ in part], [i for _, i in part], [0.0] * len(part)
                    )
            sim.run(until=1e-3)
            # Post the missing gathers: each replays its parked frames.
            for tag, (is_posted, _, expected) in gathers.items():
                if not is_posted:
                    posted[tag] = card.post_gather(tag, TransferPlan(sim, expected))
            sim.run(until=2e-3)
        except ProtocolError as exc:
            error = (type(exc), str(exc))
        if error is not None:
            return error
        return (
            _card_ledger(card),
            card._mem_in_use,
            {tag: _gather_state(op) for tag, op in posted.items()},
            _backlog(card),
        )

    (compiled, trace_c), (reference, trace_r) = _both(scenario)
    assert compiled == reference
    if not isinstance(compiled[0], type):  # no raise: the streams match
        assert trace_c == trace_r


def test_group_bytes_hands_an_odd_group_back():
    kernel = card_module._ctrain
    train = Train(MacAddress(0), 8, kind="inic", op=1)
    for size in (10, 20, 30):
        train.append(MacAddress(1), size, 0.0)
    assert kernel.group_bytes([train, train], [0, 2]) == 40
    assert kernel.group_bytes([train], [3]) is None  # past the column
    assert kernel.group_bytes([SimpleNamespace(payload_bytes=[5])], [0]) is None
    train.payload_bytes[1] = 2.0
    assert kernel.group_bytes([train], [1]) is None
    assert INICCard._group_bytes([train], [1]) == 2.0


def test_scatter_blocks_hands_an_odd_train_back():
    """A train whose column is not a list, or bus floats that are not
    floats, leave the scatter to the reference: nothing is laid down."""
    kernel = card_module._ctrain
    card = INICCard(Simulator(), MacAddress(0), spec=ACEII_PROTOTYPE)
    blocks = [SendBlock(MacAddress(1), 100)]
    card._fast_rows(100, 4096)
    train = Train(card.address, 8, kind="inic", op=1)
    args = (4096, train, None, 1.0, 0.0, 0.0, 0.0)
    assert kernel.scatter_blocks(card, blocks, 0, 1, *args)[0] == 1
    assert len(train) == 1
    train.times = tuple(train.times)
    assert kernel.scatter_blocks(card, blocks, 0, 1, *args) == (0, 1.0, 0.0, 0.0, 0.0)
    train.times = list(train.times)
    odd = (4096, train, None, 1, 0.0, 0.0, 0.0)
    assert kernel.scatter_blocks(card, blocks, 0, 1, *odd) == (0, 1, 0.0, 0.0, 0.0)
    assert len(train) == 1


# --- end to end -------------------------------------------------------------------------
@pytest.mark.parametrize("app", ["fft", "sort"])
def test_fastpath_apps_match_the_reference_loops(app):
    """A p=16 fast-path FFT and sort: same makespan, events, card rows
    and event stream on the compiled loops as on the reference."""
    (compiled, trace_c), (reference, trace_r) = _both(
        lambda: _fastpath_card_ledger(app)
    )
    assert compiled == reference
    assert trace_c == trace_r
