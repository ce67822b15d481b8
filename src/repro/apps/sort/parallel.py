"""Baseline distributed integer sort (Section 3.2.1, over SimMPI/TCP).

Per rank:

  1. bucket sort local keys into P destination buckets (host, random-
     write bound);
  2. all-to-all: bucket i to processor i;
  3. bucket sort received keys into cache-fit buckets (host);
  4. count sort each bucket (host, cache-resident).

All phases are functional (the returned per-rank arrays concatenate to
the globally sorted sequence) and timed.  Trace spans: ``sort-phase1``,
``sort-comm``, ``sort-phase2``, ``sort-countsort`` — the decomposition
of Figure 5(a).
"""

from __future__ import annotations

import numpy as np

from ...cluster.app import AppResult, ParallelApp
from ...cluster.builder import Cluster
from ...cluster.collectives import allgather, alltoall
from ...cluster.mpi import RankContext
from ...errors import ApplicationError
from ...models.params import (
    DEFAULT_PARAMS,
    MachineParams,
    bucket_sort_time,
    count_sort_time,
)
from .bucketsort import cache_bucket_count, phase1_destination_buckets, phase2_cache_buckets
from .countsort import count_sort_inplace
from .keygen import split_keys
from .sampling import choose_splitters, sample_local, split_by_splitters

__all__ = ["baseline_sort", "host_final_sort"]


def host_final_sort(
    ctx: RankContext,
    local_keys: np.ndarray,
    p: int,
    params: MachineParams,
    pre_binned_ways: int = 1,
):
    """Generator: phase-2 cache binning + per-bucket count sort.

    Takes ownership of ``local_keys``, a fresh receive buffer, and
    returns it sorted in place.

    ``pre_binned_ways``: how many ways the data is already binned when
    it reaches the host (1 = not at all; 16 = the prototype INIC's
    card-side pre-split, which discounts the host refine).
    """
    n_local = int(local_keys.shape[0])
    n_buckets = cache_bucket_count(
        n_local, params.keys_per_cache_bucket, params.min_cache_buckets
    )
    hierarchy = ctx.node.hierarchy

    if n_buckets > pre_binned_ways:
        t_phase2 = bucket_sort_time(params, hierarchy, n_local, n_buckets)
        if pre_binned_ways > 1:
            t_phase2 *= params.host_phase2_factor
        span = ctx.trace.open("sort-phase2", rank=ctx.rank)
        yield from ctx.compute(t_phase2)
        span.close()

    t_count = count_sort_time(
        params,
        hierarchy,
        n_local,
        bucket_keys=max(1, n_local // max(n_buckets, 1)),
    )
    span = ctx.trace.open("sort-countsort", rank=ctx.rank)
    yield from ctx.compute(t_count)
    span.close()
    # Functionally, binning + per-bucket count sort == full count sort.
    return count_sort_inplace(local_keys)


def baseline_sort(
    cluster: Cluster,
    keys: np.ndarray,
    params: MachineParams = DEFAULT_PARAMS,
    balance_sampling: bool = False,
    oversample: int = 32,
) -> tuple[list[np.ndarray], AppResult]:
    """Run the parallel sort; returns (per-rank sorted arrays, timing).

    ``balance_sampling=True`` enables the pre-sort sampling phase the
    paper alludes to for non-uniform keys (Section 3.2): ranks gather a
    key sample, agree on P-1 splitters, and bin by range search instead
    of top bits — balancing skewed (e.g. Gaussian) distributions.
    """
    a = np.ascontiguousarray(keys, dtype=np.uint32)
    p = cluster.size
    if p & (p - 1):
        raise ApplicationError(
            f"the parallel sort assumes P is a power of two (Section 3.2.1); got {p}"
        )
    shards = split_keys(a, p)

    def program(ctx: RankContext):
        mine = shards[ctx.rank]
        hierarchy = ctx.node.hierarchy

        splitters = None
        if balance_sampling:
            # Pre-sort sampling phase: tiny communication, big balance win
            # on skewed keys.
            rng = cluster.streams.stream(f"sampling.{ctx.rank}")
            local_sample = sample_local(mine, oversample, p, rng)
            span = ctx.trace.open("sort-sampling", rank=ctx.rank)
            gathered = yield from allgather(
                ctx, local_sample, max(int(local_sample.nbytes), 4)
            )
            span.close()
            pool = np.concatenate(
                [np.asarray(g, dtype=np.uint32).ravel() for g in gathered]
            )
            splitters = choose_splitters(pool, p)

        # Phase 1: destination binning.
        span = ctx.trace.open("sort-phase1", rank=ctx.rank)
        yield from ctx.compute(
            bucket_sort_time(params, hierarchy, mine.shape[0], p)
        )
        span.close()
        buckets = (
            split_by_splitters(mine, splitters)
            if splitters is not None
            else phase1_destination_buckets(mine, p)
        )

        # All-to-all: bucket i -> processor i.
        blocks = [(int(b.nbytes), b) for b in buckets]
        span = ctx.trace.open("sort-comm", rank=ctx.rank)
        received = yield from alltoall(ctx, blocks)
        span.close()
        local = np.concatenate(
            [np.asarray(r, dtype=np.uint32).ravel() for r in received if r is not None]
            or [np.empty(0, dtype=np.uint32)]
        )

        # Phases 2 + count sort.
        result = yield from host_final_sort(ctx, local, p, params)
        return result

    app = ParallelApp(cluster)
    result = app.run(program)
    return list(result.rank_results), result
