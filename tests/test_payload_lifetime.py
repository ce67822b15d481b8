"""A finished run keeps no delivered payload alive.

The simulator's daemon loops (NIC rings, card ingest/egress/receive, the
TCP sender, the MPI rendezvous responder) live as long as the cluster.
A loop parked on its next ``get`` used to keep its last item in a local,
so a finished sort cluster still held the whole phase-1 copy of the
keys.  These tests pin the fix:

* a census walks everything reachable from the ``Session`` after the
  app returns and checks that every ``ndarray`` is (a view of) the
  input, the output, or an ``AppResult.rank_results`` entry;
* no suspended generator holds a payload carrier (frame, message,
  block, scatter, gather, queue item) in a local;
* with ``proto.max_retries > 0`` the only other holders are the card's
  retransmit retention (``INICCard._sent_blocks``) and its early-arrival
  backlog (``INICCard._pending_rx``), where late retransmits park;
* ``host_final_sort`` sorts the receive buffer it owns in place, while
  ``count_sort`` keeps its copy contract.

The last section pins the per-pair footprint of the all-to-all
bookkeeping: an all-to-all posts p blocks per rank and gathers p
payloads per rank, so anything allocated per (block, source) pair is
p^2 objects per phase.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import tracemalloc
import types
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import ACEII_PROTOTYPE, Experiment, FaultSpec
from repro.apps.fft import baseline_fft2d, inic_fft2d
from repro.apps.sort import baseline_sort, count_sort, host_final_sort, inic_sort
from repro.cluster.app import ParallelApp
from repro.errors import OffloadError
from repro.inic.card import GatherOp, ScatterOp, SendBlock, _EgressChunk
from repro.inic.cores import ReduceCore
from repro.models.params import DEFAULT_PARAMS
from repro.net.addresses import MacAddress
from repro.net.packet import Frame
from repro.protocols.base import MessageView
from repro.protocols.inicproto import TransferPlan
from repro.protocols.tcp import _OutMsg
from repro.sim import Simulator

#: the items the datapath loops pass along; none may outlive its delivery
#: in a parked loop's locals
CARRIERS = (Frame, MessageView, _OutMsg, SendBlock, ScatterOp, GatherOp, _EgressChunk)

#: random-generator state is not payload
_RNG_TYPES = (np.random.Generator, np.random.BitGenerator, np.random.SeedSequence)


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _reachable(root, exempt=()):
    """Every object reachable from ``root`` through ``gc.get_referents``,
    not descending into modules, classes, module globals, RNG state or
    the ``exempt`` containers."""
    stop = {id(m.__dict__) for m in list(sys.modules.values()) if m is not None}
    stop.update(id(o) for o in exempt)
    seen = {id(root)}
    queue = deque([root])
    while queue:
        obj = queue.popleft()
        yield obj
        if isinstance(obj, np.ndarray):
            continue
        for ref in gc.get_referents(obj):
            if (
                id(ref) in seen
                or id(ref) in stop
                or isinstance(ref, (types.ModuleType, type, *_RNG_TYPES))
            ):
                continue
            seen.add(id(ref))
            queue.append(ref)


def _census(session, data, output, result, exempt=()):
    """(stray arrays, parked carriers) reachable from ``session``."""
    results = [output] if isinstance(output, np.ndarray) else list(output)
    allowed = {id(data)}
    allowed.update(
        id(_owner(a)) for a in results + list(result.rank_results)
        if isinstance(a, np.ndarray)
    )
    strays, parked = [], []
    for obj in _reachable(session, exempt):
        if isinstance(obj, np.ndarray):
            if id(_owner(obj)) not in allowed:
                strays.append(obj)
        elif isinstance(obj, types.GeneratorType) and obj.gi_frame is not None:
            parked += [
                f"{obj.__qualname__}.{name}"
                for name, value in obj.gi_frame.f_locals.items()
                if isinstance(value, CARRIERS)
            ]
    return strays, parked


def _keys(n: int) -> np.ndarray:
    return np.random.default_rng(2).integers(0, 2**32, size=n, dtype=np.uint32)


def _matrix(rows: int) -> np.ndarray:
    g = np.random.default_rng(2)
    return g.standard_normal((rows, rows)) + 1j * g.standard_normal((rows, rows))


def _tcp_fft_aggregate():
    session = Experiment().nodes(8).fabric("aggregate").build()
    data = _matrix(32)
    return session, data, *baseline_fft2d(session.cluster, data)


def _baseline_sort_wire_star():
    # 2^17 keys over 2 ranks: ~128 KiB buckets, above the MPI eager
    # limit, so the rendezvous responder runs too
    session = Experiment().nodes(2).build()
    data = _keys(1 << 17)
    return session, data, *baseline_sort(session.cluster, data)


def _prototype_sort_wire_star():
    session = Experiment().nodes(4).card(ACEII_PROTOTYPE).build()
    data = _keys(1 << 14)
    return session, data, *inic_sort(session.cluster, session.manager, data)


def _prototype_fft_wire_star():
    session = Experiment().nodes(4).card(ACEII_PROTOTYPE).build()
    data = _matrix(32)
    return session, data, *inic_fft2d(session.cluster, session.manager, data)


def _inic_sort_fattree_fastpath():
    session = (
        Experiment()
        .nodes(16)
        .card(ACEII_PROTOTYPE)
        .fabric("fattree")
        .fastpath(True)
        .build()
    )
    data = _keys(1 << 12)
    out = inic_sort(session.cluster, session.manager, data)
    assert session.cluster.switch.trains_fast > 0
    return session, data, *out


DATAPATHS = [
    _tcp_fft_aggregate,
    _baseline_sort_wire_star,
    _prototype_sort_wire_star,
    _prototype_fft_wire_star,
    _inic_sort_fattree_fastpath,
]


@pytest.mark.parametrize(
    "point", DATAPATHS, ids=[fn.__name__.lstrip("_") for fn in DATAPATHS]
)
def test_finished_run_holds_no_delivered_payload(point):
    session, data, output, result = point()
    strays, parked = _census(session, data, output, result)
    assert not parked, f"parked loops hold delivered items: {sorted(set(parked))}"
    assert not strays, (
        f"{len(strays)} arrays ({sum(a.nbytes for a in strays)} B) outlive "
        "their delivery"
    )


def test_retransmit_retention_is_the_only_other_holder():
    card = dataclasses.replace(
        ACEII_PROTOTYPE,
        proto=dataclasses.replace(ACEII_PROTOTYPE.proto, max_retries=6),
    )
    session = (
        Experiment()
        .nodes(4)
        .card(card)
        .faults(FaultSpec(seed=3, loss_rate=0.1))
        .build()
    )
    data = _keys(1 << 14)
    output, result = inic_sort(session.cluster, session.manager, data)
    cards = [node.inic for node in session.cluster.nodes]
    assert sum(c.stats.retransmits for c in cards) > 0
    # A retransmit that raced its late original parks in the backlog of
    # a gather that has already completed.
    assert any(c._pending_rx for c in cards)

    strays, parked = _census(session, data, output, result)
    assert strays, "retention holds every posted block by design"
    assert not parked
    retention = [c._sent_blocks for c in cards] + [c._pending_rx for c in cards]
    strays, _ = _census(session, data, output, result, exempt=retention)
    assert not strays, (
        f"{len(strays)} arrays held outside _sent_blocks and _pending_rx"
    )


# -- host_final_sort owns its receive buffer -------------------------------------


def _final_sort(buf: np.ndarray) -> np.ndarray:
    session = Experiment().nodes(1).build()

    def program(ctx):
        return (yield from host_final_sort(ctx, buf, 1, DEFAULT_PARAMS))

    (out,) = ParallelApp(session.cluster).run(program).rank_results
    return out


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=0, max_value=1 << 14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=0, seed=0)
@example(n=1, seed=0)
@example(n=4095, seed=1)
@example(n=4096, seed=2)
@example(n=4097, seed=3)
@example(n=1 << 16, seed=4)
def test_host_final_sort_sorts_its_buffer_in_place(n, seed):
    keys = np.random.default_rng(seed).integers(0, 2**32, size=n, dtype=np.uint32)
    expected = np.sort(keys)
    buf = keys.copy()
    assert _final_sort(buf) is buf
    assert np.array_equal(buf, expected)

    before = keys.copy()
    assert np.array_equal(count_sort(keys), expected)
    assert np.array_equal(keys, before), "count_sort must not touch its input"


# -- per-pair footprint of the all-to-all bookkeeping -----------------------------

#: bytes a GatherOp may spend per stored payload at N=1024 sources: two
#: 8-byte list slots (source value, payload) plus CPython's list
#: over-allocation of at most 1/8.  Measured 17.9 B; a dict entry plus a
#: one-item list per source measured 121 B.
GATHER_BYTES_PER_PAYLOAD = 20


def _gather(sources, **kwargs) -> GatherOp:
    sim = Simulator()
    plan = TransferPlan(sim, {peer: 1 for peer in sources})
    return GatherOp(sim, 1, plan, **kwargs)


def test_gather_stores_a_payload_in_two_column_slots():
    n = 1024
    srcs = [MacAddress(i) for i in range(n)]
    op = _gather(range(n))
    payload = object()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for src in srcs:
            op.store_payload(src, payload)
        per_payload = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_payload <= GATHER_BYTES_PER_PAYLOAD, (
        f"{per_payload:.1f} B per stored payload"
    )
    assert len(op.payloads) == n


def test_send_block_has_no_dict_and_rejects_empty_blocks():
    block = SendBlock(MacAddress(1), 1, b"x")
    assert not hasattr(block, "__dict__")
    with pytest.raises(AttributeError):
        block.extra = 1
    # The size check runs once per scatter in post_scatter, not per
    # block construction.
    from repro.inic import INICCard

    card = INICCard(Simulator(), MacAddress(0))
    for nbytes in (0, -1):
        with pytest.raises(OffloadError):
            card.post_scatter(1, [block, SendBlock(MacAddress(1), nbytes)])


def test_gather_payloads_keep_per_source_arrival_order():
    seen = {}

    def assemble(sources, payloads):
        seen["arg"] = (sources, payloads)
        return "assembled"

    op = _gather([1, 3], assemble=assemble)
    for src, item in ((3, "a"), (1, "b"), (3, "c")):
        op.store_payload(MacAddress(src), item)
    op.store_payload(MacAddress(1), None)  # a payload-less last packet
    assert op.payloads == {3: ["a", "c"], 1: ["b"]}
    assert list(op.payloads) == [3, 1], "sources in order of first arrival"
    assert not op.payload_missing(3) and op.payload_missing(2)
    assert op.result() == "assembled"
    assert seen["arg"] == ([1, 3, 3], ["b", "a", "c"])

    # ``payloads`` is read-only: a caller's edit changes nothing stored.
    op.payloads[3].append("z")
    op.payloads.clear()
    assert op.payloads == {3: ["a", "c"], 1: ["b"]}
    with pytest.raises(AttributeError):
        op.payloads = {}


def test_gather_dedupe_folds_each_source_once():
    op = _gather([1, 2])
    op.dedupe_payloads = True
    op.store_payload(MacAddress(2), "original")
    op.store_payload(MacAddress(2), "retransmit")
    assert op.payloads == {2: ["original"]}
    assert not op.payload_missing(2) and op.payload_missing(1)


def test_gather_reduce_accumulates_without_storing():
    op = _gather([1, 2], reduce_core=ReduceCore("sum"))
    for src in (1, 2):
        op.store_payload(MacAddress(src), np.full(4, float(src)))
    assert np.array_equal(op.result(), np.full(4, 3.0))
    assert op.payloads == {}


def test_host_tcp_alltoall_creates_no_per_connection_deque():
    p = 16
    session = Experiment().nodes(p).fabric("aggregate").build()
    baseline_fft2d(session.cluster, _matrix(32))
    conns = [
        conn for node in session.cluster.nodes
        for conn in node.tcp._send_conns.values()
    ]
    assert len(conns) == p * (p - 1)
    holders = [
        name for conn in conns for name, value in vars(conn).items()
        if isinstance(value, deque)
    ]
    assert not holders, f"connections hold deques: {sorted(set(holders))}"
    deques = sum(isinstance(obj, deque) for obj in _reachable(session))
    assert deques < p * (p - 1), f"{deques} deques for {len(conns)} connections"
