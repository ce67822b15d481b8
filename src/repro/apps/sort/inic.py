"""INIC-offloaded integer sort (Figures 3(b) and 7).

Both bucket sorts run in the cards: the send side bins into P
destination buckets as data streams host->card, the receive side bins
arrivals into cache-fit buckets before the 64 KiB-threshold DMA to the
host.  The host keeps only the cache-friendly count sort — and, on the
ACEII prototype, the phase-2 refine of the card's 16-way pre-split
(Section 6).

The transfer plan (how many keys each peer will send) is data-dependent;
the implementation exchanges the counts in a prologue all-to-all of one
packet per peer via the cards (cheap, and exactly the kind of metadata
exchange the custom protocol's "knows how much data to expect" property
presumes).
"""

from __future__ import annotations

import numpy as np

from ...cluster.app import AppResult, ParallelApp
from ...cluster.builder import Cluster
from ...cluster.mpi import RankContext
from ...core.design import integer_sort_design
from ...core.manager import INICManager
from ...errors import ApplicationError, OffloadError
from ...inic.card import SendBlock
from ...models.params import DEFAULT_PARAMS, MachineParams
from ...protocols.inicproto import TransferPlan
from .bucketsort import phase1_destination_buckets
from .keygen import split_keys
from .parallel import host_final_sort

__all__ = ["inic_sort"]


def _check_sources(sources: list[int], p: int, what: str) -> None:
    """A gather over all ``p`` ranks holds one payload per rank."""
    if sources != list(range(p)):
        raise OffloadError(
            f"{what}: gathered sources {sources} are not one each from 0..{p - 1}"
        )


def _counts_exchange(ctx: RankContext, manager: INICManager, counts: list[int], tag: int):
    """Generator: one-packet-per-peer metadata all-to-all via the cards.

    Returns this rank's column of the received count vectors: how many
    keys each source will send here, as Python ints in source order.
    """
    p = ctx.size
    rank = ctx.rank
    addrs = manager.cluster.addresses
    driver = manager.driver(ctx.rank)
    plan = TransferPlan(ctx.sim, {src: 4 * p for src in range(p)}, name=f"counts.{ctx.rank}")
    payload = np.asarray(counts, dtype=np.uint32)
    blocks = [
        SendBlock(addrs[(ctx.rank + s) % p], 4 * p, payload)
        for s in range(1, p)
    ] + [SendBlock(addrs[ctx.rank], 4 * p, payload)]

    def column(sources: list[int], vectors: list) -> list[int]:
        _check_sources(sources, p, f"counts.{rank}")
        # ``item`` reads the entry as a Python int, one call per source;
        # stacking the vectors to slice the column copies all p entries
        # of each and is slower.
        return [vector.item(rank) for vector in vectors]

    return (yield from driver.exchange(tag, blocks, plan, column))


def inic_sort(
    cluster: Cluster,
    manager: INICManager,
    keys: np.ndarray,
    params: MachineParams = DEFAULT_PARAMS,
    configure: bool = True,
) -> tuple[list[np.ndarray], AppResult]:
    """Run the INIC sort; returns (per-rank sorted arrays, timing)."""
    a = np.ascontiguousarray(keys, dtype=np.uint32)
    p = cluster.size
    if p & (p - 1):
        raise ApplicationError(
            f"the parallel sort assumes P is a power of two (Section 3.2.1); got {p}"
        )
    card_spec = cluster.spec.inic
    if configure:
        manager.configure_all(lambda: integer_sort_design(card_spec))
    card_buckets = manager.driver(0).card.design.cores[-1].n_buckets
    shards = split_keys(a, p)
    addrs = cluster.addresses

    def program(ctx: RankContext):
        mine = shards[ctx.rank]
        driver = manager.driver(ctx.rank)
        bucket_core = driver.card.design.core(f"bucket-sort-{card_buckets}")

        # Send-side bucket sort happens IN the card as data streams out:
        # zero host cost (functional equivalent below).
        buckets = phase1_destination_buckets(mine, p)
        for b in buckets:
            bucket_core.bytes_processed += b.nbytes

        counts = [int(b.shape[0]) for b in buckets]
        incoming = yield from _counts_exchange(ctx, manager, counts, 0x50)
        n_local = sum(incoming)

        order = [(ctx.rank + s) % p for s in range(1, p)] + [ctx.rank]
        blocks = [
            SendBlock(
                addrs[dst],
                max(int(buckets[dst].nbytes), 4),
                buckets[dst],
            )
            for dst in order
        ]
        plan = TransferPlan(
            ctx.sim,
            {src: max(n * 4, 4) for src, n in enumerate(incoming)},
            name=f"sort.{ctx.rank}",
        )

        def assemble(sources: list[int], parts: list) -> np.ndarray:
            _check_sources(sources, p, f"sort.{ctx.rank}")
            local = np.concatenate(parts, dtype=np.uint32)
            if local.shape != (n_local,):
                raise OffloadError(
                    f"sort.{ctx.rank}: gathered {local.shape} keys, "
                    f"the counts promised {n_local}"
                )
            # Receive-side binning in the card (functional bookkeeping).
            bucket_core.bytes_processed += local.nbytes
            return local

        span = ctx.trace.open("inic-sort-comm", rank=ctx.rank)
        local = yield from driver.exchange(0x51, blocks, plan, assemble)
        span.close()

        # Host work: count sort (+ phase-2 refine on the prototype, whose
        # card only pre-binned card_buckets ways).
        result = yield from host_final_sort(
            ctx, local, p, params, pre_binned_ways=card_buckets
        )
        return result

    app = ParallelApp(cluster)
    result = app.run(program)
    return list(result.rank_results), result
