"""Section 3.2's kernel claims, measured on the functional kernels.

* "We found that Count Sort was as much as 2.5x faster than quicksort."
* "it is important to first bucket sort the data such that the buckets
  fit in the processor cache" — with >= 128 buckets at 2^21 keys.

It also times the apps layer's phase-1 destination binning at the
Fig. 8(b) shapes (2^24 keys over p = 2..16 ranks): the compiled stable
scatter that ``phase1_destination_buckets`` runs when
``repro.apps.sort._cbucket`` is built, the numpy stable-argsort body it
falls back to, and sorting each shard once and cutting it at the
destination edges (the sampling variant's binning, and phase 1's
before the scatter).  A second panel times the receivers' full sort of
what each binning hands them: keys in input order, or p ascending runs.

These are wall-clock benchmarks of our from-scratch kernels (the only
deliberately wall-clock measurements in the suite; everything else is
simulated time).  The quicksort here manages segments in Python, so the
ratio lands far *above* 2.5x — the direction of the claim is what the
assertion checks.
"""

import numpy as np
import pytest

from repro.apps.sort import (
    bucketsort,
    cache_bucket_count,
    count_sort,
    phase1_destination_buckets,
    quicksort,
    split_by_bits,
    split_by_splitters,
    split_keys,
    uniform_keys,
)
from repro.apps.sort.countsort import count_sort_inplace

N_KEYS = 1 << 17
rng = np.random.default_rng(11)
KEYS = uniform_keys(N_KEYS, rng)


def test_count_sort_rate(benchmark):
    out = benchmark(count_sort, KEYS)
    assert np.array_equal(out, np.sort(KEYS))


def test_quicksort_rate(benchmark):
    out = benchmark.pedantic(quicksort, args=(KEYS,), rounds=1, iterations=1)
    assert np.array_equal(out, np.sort(KEYS))


def test_count_sort_beats_quicksort():
    """The paper's 2.5x claim, as a direction + magnitude floor."""
    import time

    t0 = time.perf_counter()
    count_sort(KEYS)
    t_count = time.perf_counter() - t0
    t0 = time.perf_counter()
    quicksort(KEYS)
    t_quick = time.perf_counter() - t0
    assert t_quick / t_count > 2.5


def test_bucket_split_rate(benchmark):
    buckets = benchmark(split_by_bits, KEYS, 0, 128)
    assert sum(b.shape[0] for b in buckets) == N_KEYS


def test_cache_bucket_rule_is_128_at_2_21():
    """Section 3.2.1: 'On a problem size of 2^21 keys or more, a minimum
    of 128 buckets are needed'."""
    assert cache_bucket_count(2**21, 24 * 1024) >= 128
    n = cache_bucket_count(2**21, 24 * 1024)
    # And each bucket then fits comfortably in a 256 KiB L2.
    assert (2**21 // n) * 4 <= 256 * 1024


@pytest.mark.parametrize("n_buckets", [16, 128])
def test_bucketed_count_sort_end_to_end(benchmark, n_buckets):
    """Bucket pre-pass + per-bucket count sort == sorted (the paper's
    full host pipeline), at either the prototype or ideal bucket count."""

    def pipeline():
        buckets = split_by_bits(KEYS, 0, n_buckets)
        return np.concatenate([count_sort(b) for b in buckets])

    out = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    assert np.array_equal(out, np.sort(KEYS))


# --- phase-1 destination binning at the Fig. 8(b) shapes -------------------------------
FIG8B_KEYS = 1 << 24
FIG8B_PROCS = (2, 4, 8, 16)
PHASE1_BINNERS = {
    "compiled": phase1_destination_buckets,
    "numpy": lambda shard, p: bucketsort._split_by_bits_numpy(
        shard, 32 - (p.bit_length() - 1), p
    ),
    "sort": lambda shard, p: split_by_splitters(shard, _edges(p)),
}


def _edges(p):
    """Phase 1's destination edges as splitters: ``d << (32 - log2 p)``."""
    return np.arange(1, p, dtype=np.uint32) << np.uint32(32 - (p.bit_length() - 1))


def _fig8b_phase1(binner, keys, p):
    """Every rank's phase 1 of one Fig. 8(b) point: bin each of the p
    shards of ``keys`` into p destination buckets."""
    return [binner(shard, p) for shard in split_keys(keys, p)]


@pytest.fixture(scope="module")
def fig8b_keys():
    return uniform_keys(FIG8B_KEYS, np.random.default_rng(2))


@pytest.mark.parametrize("p", FIG8B_PROCS)
@pytest.mark.parametrize("binner", sorted(PHASE1_BINNERS))
def test_phase1_binning_rate(benchmark, fig8b_keys, binner, p):
    if binner == "compiled" and not bucketsort.compiled:
        pytest.skip("compiled scatter not built")
    per_rank = benchmark.pedantic(
        _fig8b_phase1,
        args=(PHASE1_BINNERS[binner], fig8b_keys, p),
        rounds=3,
        iterations=1,
    )
    sizes = np.sum([[b.shape[0] for b in buckets] for buckets in per_rank], axis=0)
    assert sizes.sum() == FIG8B_KEYS
    # Destination d receives the keys whose top log2(p) bits are d.
    top = fig8b_keys >> np.uint32(32 - (p.bit_length() - 1))
    assert sizes.tolist() == np.bincount(top, minlength=p).tolist()


@pytest.mark.skipif(not bucketsort.compiled, reason="compiled scatter not built")
def test_compiled_phase1_beats_one_sort_per_shard(fig8b_keys):
    """The compiled stable scatter bins a shard in less host time than
    sorting it once, at every Fig. 8(b) processor count."""
    import time

    def best_of_3(binner, p):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _fig8b_phase1(binner, fig8b_keys, p)
            times.append(time.perf_counter() - t0)
        return min(times)

    for p in FIG8B_PROCS:
        t_scatter = best_of_3(PHASE1_BINNERS["compiled"], p)
        t_sort = best_of_3(PHASE1_BINNERS["sort"], p)
        assert t_scatter < t_sort, (p, t_scatter, t_sort)


@pytest.mark.parametrize("p", FIG8B_PROCS)
@pytest.mark.parametrize("order", ["input", "ascending"])
def test_receiver_sort_rate(benchmark, fig8b_keys, order, p):
    """Every receiver's full sort of its p incoming buckets, in the
    order the stable binning (``input``) or sort-and-cut
    (``ascending``) hands them over."""
    binner = PHASE1_BINNERS["numpy" if order == "input" else "sort"]
    per_rank = _fig8b_phase1(binner, fig8b_keys, p)

    def receive():
        return [
            count_sort_inplace(np.concatenate([buckets[d] for buckets in per_rank]))
            for d in range(p)
        ]

    out = benchmark.pedantic(receive, rounds=3, iterations=1)
    assert np.array_equal(np.concatenate(out), np.sort(fig8b_keys))
