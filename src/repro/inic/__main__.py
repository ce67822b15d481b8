"""Card-layer diagnostics CLI: the fast-path all-to-all microbenchmark.

::

    python -m repro.inic --bench                 # p = 64 and 256, a table
    python -m repro.inic --bench --p 16 --json   # machine-readable

``--bench`` builds ``p`` bare ACEII prototype cards (no host CPUs) on a
fat-tree with the card-train fast path on, loads the FFT transpose
design, and runs one all-to-all: every card posts a gather for ``p``
blocks and a train scatter of ``p`` blocks (self last, as the FFT
does).  The blocks are the 2 x 2 complex blocks that ``fft-inic-fattree``
moves at p=256 (64 B each), and each gather assembles its panel through
the final-permutation core; the run fails if any panel is wrong.

It reports the run's DES events, its blocks (``p * p``), the fabric's
fast-path train count, whether the compiled slice loop admitted them
(``compiled``) and whether the card's scatter and receive loops ran
compiled (``card_compiled``; each false when its optional extension is
not built), and host microseconds per block in four stages,
each its own exclusive time (a nested stage's time is not counted
twice):

* ``scatter``   — :meth:`INICCard._run_scatter_fast`, the closed-form
  card datapath that lays down each sender's train (its block loop is
  compiled when ``card_compiled``);
* ``admission`` — the fabric's flow-clock slice admission
  (:mod:`repro.net.flowclock`): routing and hop clocks
  (``_admit_slice``), then delivery batching (``add_many``);
* ``receive``   — :meth:`INICCard.receive_train` and the bus-crossing
  callbacks that account each frame against its gather's plan;
* ``assemble``  — each gather's ``assemble(sources, payloads)``;

plus ``other``: the rest of the run's wall (kernel, gather watches,
DMA-to-host transfers).  Set-up (building the cards and loading the
design) is not timed.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from ..net.addresses import MacAddress
from ..net.flowclock import DeliveryBatcher
from ..net.topology import build_fattree
from ..protocols.inicproto import TransferPlan
from ..sim.engine import Simulator
from . import card as card_module
from .card import ACEII_PROTOTYPE, INICCard, SendBlock

STAGES = ("scatter", "admission", "receive", "assemble")

#: edge of the square complex blocks (2 x 2 x 16 B = 64 B, the
#: ``fft-inic-fattree`` block at p=256)
BLOCK_EDGE = 2

_TAG = 0xB1


class _Batcher(DeliveryBatcher):
    """The fabric's delivery batcher with an instance ``__dict__``, so the
    bench can time its ``add_many`` (the base class has slots)."""


class _StageClock:
    """Exclusive host time per stage of wrapped callables."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(STAGES, 0.0)
        self._children: list[float] = []

    def wrap(self, stage: str, fn):
        clock = time.perf_counter
        totals = self.self_s
        children = self._children

        def timed(*args):
            t0 = clock()
            children.append(0.0)
            try:
                return fn(*args)
            finally:
                nested = children.pop()
                dt = clock() - t0
                totals[stage] += dt - nested
                if children:
                    children[-1] += dt

        return timed


def bench_alltoall(p: int) -> dict:
    """One fast-path all-to-all over ``p`` cards; returns the report row."""
    from ..core.design import fft_transpose_design

    sim = Simulator()
    cards = [
        INICCard(sim, MacAddress(i), spec=ACEII_PROTOTYPE, name=f"inic{i}")
        for i in range(p)
    ]
    fabric = build_fattree(sim, [(card.address, card) for card in cards])
    for card in cards:
        card.fastpath = True
        sim.process(card.configure(fft_transpose_design()))
    sim.run()

    clock = _StageClock()
    fabric._admit_slice = clock.wrap("admission", fabric._admit_slice)
    fabric._batcher = _Batcher(sim, fabric._devices)
    fabric._batcher.add_many = clock.wrap("admission", fabric._batcher.add_many)
    for card in cards:
        card._run_scatter_fast = clock.wrap("scatter", card._run_scatter_fast)
        card.receive_train = clock.wrap("receive", card.receive_train)
        card._finish_rx_train = clock.wrap("receive", card._finish_rx_train)
        card._fast_local_deliver = clock.wrap("receive", card._fast_local_deliver)

    m = BLOCK_EDGE
    nbytes = m * m * np.dtype(np.complex128).itemsize
    # Block (src -> dst) is filled with src * p + dst, so every assembled
    # panel is known in advance.
    values = np.arange(p * p, dtype=np.complex128).reshape(p, p)
    blocks = {
        (src, dst): np.full((m, m), values[src, dst]) for src in range(p) for dst in range(p)
    }
    gathers = []
    for rank, card in enumerate(cards):
        pcore = card.require_core("final-permutation")
        plan = TransferPlan(sim, {src: nbytes for src in range(p)}, name=f"bench.{rank}")
        gathers.append(
            card.post_gather(_TAG, plan, clock.wrap("assemble", pcore.assemble))
        )
    for rank, card in enumerate(cards):
        order = [(rank + shift) % p for shift in range(1, p)] + [rank]
        card.post_scatter(
            _TAG,
            [SendBlock(cards[dst].address, nbytes, blocks[rank, dst]) for dst in order],
            train=True,
        )

    events0 = sim.event_count
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0

    for rank, op in enumerate(gathers):
        if not op.done.processed:
            raise RuntimeError(f"gather on card {rank} did not complete")
        want = np.repeat(values[:, rank], m)[None, :].repeat(m, axis=0)
        if not np.array_equal(op.done.value, want):
            raise RuntimeError(f"card {rank} assembled a wrong panel")
    n_blocks = p * p
    per_block = {
        stage: 1e6 * clock.self_s[stage] / n_blocks for stage in STAGES
    }
    per_block["other"] = 1e6 * (wall - sum(clock.self_s.values())) / n_blocks
    return {
        "p": p,
        "blocks": n_blocks,
        "events": sim.event_count - events0,
        "trains_fast": fabric.trains_fast,
        "compiled": fabric.compiled,
        "card_compiled": card_module.compiled,
        "wall_s": wall,
        "us_per_block": per_block,
    }


def run_bench(ps, as_json: bool = False) -> int:
    rows = [bench_alltoall(p) for p in ps]
    if as_json:
        print(json.dumps(rows, indent=2))
        return 0
    cols = STAGES + ("other",)
    loop = "compiled" if all(r["compiled"] for r in rows) else "python"
    card_loops = "compiled" if card_module.compiled else "python"
    print(
        "one fast-path all-to-all, ACEII prototype cards on a fat-tree, "
        f"{BLOCK_EDGE * BLOCK_EDGE * 16} B blocks, {loop} slice loop, "
        f"{card_loops} card loops; host us per block"
    )
    print(
        f"{'p':>5} {'blocks':>7} {'events':>7} {'trains':>6} "
        + " ".join(f"{c:>9}" for c in cols)
        + f" {'wall_s':>8}"
    )
    for r in rows:
        us = r["us_per_block"]
        print(
            f"{r['p']:>5} {r['blocks']:>7} {r['events']:>7} {r['trains_fast']:>6} "
            + " ".join(f"{us[c]:>9.2f}" for c in cols)
            + f" {r['wall_s']:>8.3f}"
        )
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.inic", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--bench", action="store_true", required=True,
        help="time one fast-path all-to-all per p, stage by stage",
    )
    parser.add_argument(
        "--p", type=int, nargs="+", default=[64, 256],
        help="card counts to run (default: 64 256)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    if any(p < 2 for p in args.p):
        parser.error("--p values must be >= 2")
    return run_bench(args.p, as_json=args.json)


if __name__ == "__main__":
    sys.exit(main())
