"""A gather hands its payloads to ``assemble`` in source order.

``GatherOp.by_source`` sorts the two arrival columns by source, stably,
and ``result()`` calls ``assemble(sources, payloads)`` with them.  The
FFT's final permutation and the sort's receive buffer then check the
sources once (exactly ``0 .. p-1``) and the concatenated result's shape
once, instead of unpicking a per-source dict block by block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ACEII_PROTOTYPE, Experiment
from repro.apps.fft import fft2d, inic_fft2d
from repro.apps.sort import inic_sort
from repro.errors import OffloadError
from repro.inic.card import GatherOp
from repro.inic.cores import FinalPermutationCore
from repro.net.addresses import MacAddress
from repro.protocols.inicproto import TransferPlan
from repro.sim import Simulator

P = 4


def _gather(sources, assemble=None):
    sim = Simulator()
    plan = TransferPlan(sim, {src: 1 for src in sources})
    return GatherOp(sim, 1, plan, assemble=assemble)


def _session():
    return (
        Experiment()
        .nodes(P)
        .card(ACEII_PROTOTYPE)
        .fabric("fattree")
        .fastpath(True)
        .build()
    )


def _matrix():
    g = np.random.default_rng(11)
    return g.standard_normal((32, 32)) + 1j * g.standard_normal((32, 32))


def _keys():
    return np.random.default_rng(12).integers(0, 2**32, size=1 << 12, dtype=np.uint32)


def _run_fft():
    session = _session()
    out, _ = inic_fft2d(session.cluster, session.manager, _matrix())
    return out


def _run_sort():
    session = _session()
    out, _ = inic_sort(session.cluster, session.manager, _keys())
    return out


#: the sort's two gathers: the count-vector prologue and the keys
COUNTS_TAG, KEYS_TAG = 0x50, 0x51


def _patch_columns(monkeypatch, edit, tag=None):
    """Make every gather (or only phase ``tag``'s) apply ``edit`` to its
    arrival columns before ordering them (``edit`` gets and returns
    ``(sources, items)``)."""
    by_source = GatherOp.by_source

    def patched(op):
        if tag is None or op.tag == tag:
            op._sources, op._items = edit(list(op._sources), list(op._items))
        return by_source(op)

    monkeypatch.setattr(GatherOp, "by_source", patched)


# --- GatherOp.by_source ------------------------------------------------------------------
def test_by_source_sorts_stably_and_payloads_groups_in_arrival_order():
    op = _gather([0, 1, 2])
    for src, item in ((2, "a"), (0, "b"), (2, "c"), (1, "d")):
        op.store_payload(MacAddress(src), item)
    assert op.by_source() == ([0, 1, 2, 2], ["b", "d", "a", "c"])
    assert op.payloads == {2: ["a", "c"], 0: ["b"], 1: ["d"]}
    # Each call builds fresh lists; the columns keep arrival order.
    sources, items = op.by_source()
    sources.clear()
    items.clear()
    assert op.by_source() == ([0, 1, 2, 2], ["b", "d", "a", "c"])
    assert op._sources == [2, 0, 2, 1]


def test_result_hands_assemble_the_source_ordered_pair():
    seen = []
    op = _gather([0, 1, 2], assemble=lambda s, p: seen.append((s, p)) or "done")
    for src in (2, 0, 1):
        op.store_payload(MacAddress(src), f"from{src}")
    assert op.result() == "done"
    assert seen == [([0, 1, 2], ["from0", "from1", "from2"])]


def test_result_without_assemble_is_the_payload_map():
    op = _gather([0, 1])
    op.store_payload(MacAddress(1), "x")
    op.store_payload(MacAddress(0), "y")
    assert op.result() == {1: ["x"], 0: ["y"]}


# --- scrambled arrival order -------------------------------------------------------------
def _scramble(sources, items):
    order = np.random.default_rng(len(sources)).permutation(len(sources))
    return [sources[i] for i in order], [items[i] for i in order]


def test_scrambled_arrivals_give_the_same_fft_panel(monkeypatch):
    want = _run_fft()
    assert np.allclose(want, fft2d(_matrix()), atol=1e-8)
    _patch_columns(monkeypatch, _scramble)
    got = _run_fft()
    assert got.tobytes() == want.tobytes()


def test_scrambled_arrivals_give_the_same_sort_buffers(monkeypatch):
    want = _run_sort()
    assert np.array_equal(np.concatenate(want), np.sort(_keys()))
    _patch_columns(monkeypatch, _scramble)
    got = _run_sort()
    assert len(got) == len(want) == P
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- malformed source sets raise OffloadError --------------------------------------------
def _drop_last(sources, items):
    sources, items = _scramble(sources, items)
    top = sources.index(max(sources))
    return sources[:top] + sources[top + 1:], items[:top] + items[top + 1:]


def _duplicate_first(sources, items):
    return sources + sources[:1], items + items[:1]


def _renumber(sources, items):
    """Sources 1..p instead of 0..p-1: contiguous, but not from rank 0."""
    return [s + 1 for s in sources], items


def _gap(sources, items):
    """Source p-1 arrives as p: a hole at p-1."""
    top = max(sources)
    return [s + 1 if s == top else s for s in sources], items


def _short_block(sources, items):
    """The largest payload loses its last row (or key)."""
    big = max(range(len(items)), key=lambda k: items[k].size)
    items = list(items)
    items[big] = items[big][:-1]
    return sources, items


MALFORMED = [_drop_last, _duplicate_first, _renumber, _gap]

#: (application run, gather phase whose columns are edited)
PHASES = {
    "fft": (_run_fft, None),
    "sort-counts": (_run_sort, COUNTS_TAG),
    "sort-keys": (_run_sort, KEYS_TAG),
}


@pytest.mark.parametrize("edit", MALFORMED, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("phase", sorted(PHASES))
def test_malformed_sources_raise_offload_error(monkeypatch, phase, edit):
    run, tag = PHASES[phase]
    _patch_columns(monkeypatch, edit, tag)
    with pytest.raises(OffloadError, match="sources|ranks|blocks"):
        run()


@pytest.mark.parametrize("phase", ["fft", "sort-keys"])
def test_a_short_payload_fails_the_result_shape_check(monkeypatch, phase):
    run, tag = PHASES[phase]
    _patch_columns(monkeypatch, _short_block, tag)
    with pytest.raises(OffloadError, match="panel|keys"):
        run()


def test_final_permutation_checks_sources_and_panel_shape():
    core = FinalPermutationCore()
    block = np.zeros((2, 2))
    for sources in ([0, 0], [1, 2], [0, 2], [1, 0]):
        with pytest.raises(OffloadError):
            core.assemble(sources, [block, block])
    with pytest.raises(OffloadError):
        core.assemble([0, 1], [block])  # one block short
    with pytest.raises(OffloadError):
        core.assemble([0, 1], [block, np.zeros((2, 3))])  # panel too wide
    with pytest.raises(OffloadError):
        core.assemble([0, 1], [block, np.zeros(4)])  # not a 2-D block
    with pytest.raises(OffloadError):
        core.assemble([0], [np.zeros((2, 3))])  # not square
    out = core.assemble([0, 1], [block, np.ones((2, 2))])
    assert out.shape == (2, 4) and out[:, 2:].all() and not out[:, :2].any()
    assert core.bytes_processed == out.nbytes
