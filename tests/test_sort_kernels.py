"""Unit + property tests for the sort kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.sort import (
    bucketsort,
    cache_bucket_count,
    count_sort,
    counting_pass,
    digit_histogram,
    gaussian_keys,
    is_sorted,
    phase1_destination_buckets,
    phase2_cache_buckets,
    quicksort,
    split_by_bits,
    split_by_splitters,
    split_keys,
    uniform_keys,
)
from repro.errors import ApplicationError

rng = np.random.default_rng(7)

uint32_arrays = arrays(
    dtype=np.uint32,
    shape=st.integers(min_value=0, max_value=2000),
    elements=st.integers(min_value=0, max_value=2**32 - 1),
)


# --- count sort ------------------------------------------------------------------------
def test_count_sort_sorts():
    keys = uniform_keys(50_000, rng)
    out = count_sort(keys)
    assert is_sorted(out)
    assert np.array_equal(np.sort(keys), out)


@settings(max_examples=50, deadline=None)
@given(uint32_arrays)
def test_count_sort_property(keys):
    out = count_sort(keys)
    assert is_sorted(out)
    assert np.array_equal(np.sort(keys), out)


def test_count_sort_duplicates_and_extremes():
    keys = np.array([0, 2**32 - 1, 0, 2**32 - 1, 5, 5], dtype=np.uint32)
    assert np.array_equal(count_sort(keys), np.sort(keys))


def test_count_sort_rejects_wrong_dtype():
    with pytest.raises(ApplicationError):
        count_sort(np.zeros(4, dtype=np.int64))


def test_counting_pass_is_stable_on_digit():
    keys = np.array([0x0102, 0x0201, 0x0101, 0x0202], dtype=np.uint32)
    out = counting_pass(keys, 0)  # sort by low byte only
    assert list(out) == [0x0201, 0x0101, 0x0102, 0x0202]


def test_digit_histogram_sums_to_n():
    keys = uniform_keys(10_000, rng)
    for shift in (0, 8, 16, 24):
        h = digit_histogram(keys, shift)
        assert h.sum() == 10_000
        assert h.shape == (256,)


# --- quicksort --------------------------------------------------------------------------
def test_quicksort_sorts():
    keys = uniform_keys(20_000, rng)
    assert np.array_equal(quicksort(keys), np.sort(keys))


@settings(max_examples=30, deadline=None)
@given(uint32_arrays)
def test_quicksort_property(keys):
    assert np.array_equal(quicksort(keys), np.sort(keys))


def test_quicksort_adversarial_inputs():
    assert np.array_equal(quicksort(np.arange(1000, dtype=np.uint32)),
                          np.arange(1000, dtype=np.uint32))
    rev = np.arange(1000, dtype=np.uint32)[::-1]
    assert is_sorted(quicksort(rev))
    same = np.full(1000, 7, dtype=np.uint32)
    assert np.array_equal(quicksort(same), same)


def test_quicksort_requires_1d():
    with pytest.raises(ApplicationError):
        quicksort(np.zeros((2, 2)))


# --- bucket kernels ------------------------------------------------------------------------
def test_split_by_bits_partitions():
    keys = uniform_keys(10_000, rng)
    buckets = split_by_bits(keys, 0, 8)
    assert sum(b.shape[0] for b in buckets) == 10_000
    # Range ordering by top 3 bits.
    for i, b in enumerate(buckets):
        if b.size:
            assert np.all((b >> 29) == i)


def test_split_by_bits_uniformity():
    keys = uniform_keys(100_000, rng)
    buckets = split_by_bits(keys, 0, 16)
    sizes = np.array([b.shape[0] for b in buckets])
    assert sizes.std() < 0.1 * sizes.mean()  # uniform keys balance buckets


@settings(max_examples=30, deadline=None)
@given(uint32_arrays, st.sampled_from([2, 4, 8, 16]))
def test_split_concat_is_stable_partition(keys, nb):
    buckets = split_by_bits(keys, 0, nb)
    cat = np.concatenate(buckets) if buckets else keys
    assert np.array_equal(np.sort(cat), np.sort(keys))
    # Stability within a bucket: relative order preserved.
    for i, b in enumerate(buckets):
        mask = (keys >> np.uint32(32 - (nb.bit_length() - 1))) == i if nb > 1 else None
        if mask is not None:
            assert np.array_equal(b, keys[mask])


def test_phase1_then_phase2_nesting():
    keys = uniform_keys(50_000, rng)
    p = 4
    dests = phase1_destination_buckets(keys, p)
    for rank, bucket in enumerate(dests):
        refined = phase2_cache_buckets(bucket, p, 8)
        cat = np.concatenate(refined)
        assert np.array_equal(np.sort(cat), np.sort(bucket))
        # Concatenating sorted refined buckets must be globally ordered
        # within the rank's key range.
        pieces = [count_sort(r) for r in refined]
        assert is_sorted(np.concatenate(pieces))


# Phase-1 binning is the stable binning by the top log2 p bits: each
# destination gets its keys in input order.
_EDGE_KEYS = [0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1]


@st.composite
def _phase1_cases(draw):
    p = 2 ** draw(st.integers(min_value=0, max_value=10))
    bits = p.bit_length() - 1
    edges = [b << (32 - bits) for b in range(1, p)]
    specials = _EDGE_KEYS + edges + [e - 1 for e in edges]
    keys = draw(
        arrays(
            dtype=np.uint32,
            shape=st.integers(min_value=0, max_value=600),
            elements=st.one_of(
                st.sampled_from(specials),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
        )
    )
    return keys, p


@settings(max_examples=80, deadline=None)
@given(_phase1_cases())
def test_phase1_is_the_stable_binning(case):
    keys, p = case
    before = keys.copy()
    buckets = phase1_destination_buckets(keys, p)
    assert len(buckets) == p
    bits = p.bit_length() - 1
    top = keys.astype(np.uint64) >> np.uint64(32 - bits)
    for b, bucket in enumerate(buckets):
        assert bucket.dtype == np.uint32
        assert np.array_equal(bucket, keys[top == b])
        assert not np.shares_memory(bucket, keys)
    assert np.array_equal(np.sort(np.concatenate(buckets)), np.sort(keys))
    assert np.array_equal(keys, before)


@pytest.mark.skipif(not bucketsort.compiled, reason="compiled scatter not built")
def test_compiled_scatter_rejects_what_it_cannot_bin():
    scatter = bucketsort._cbucket.scatter
    keys = np.arange(16, dtype=np.uint32)
    out = np.empty(16, dtype=np.uint32)
    assert scatter(keys, out, 28, 15) == [16] + [0] * 15
    with pytest.raises(ValueError):  # out overlaps keys
        scatter(keys, keys, 0, 1)
    with pytest.raises(ValueError):
        scatter(keys, out[:8], 0, 1)
    with pytest.raises(ValueError):  # not a power-of-two window
        scatter(keys, out, 0, 5)
    with pytest.raises(ValueError):  # window runs past bit 31
        scatter(keys, out, 30, 7)
    with pytest.raises(ValueError):
        scatter(keys, out, 32, 0)
    with pytest.raises(TypeError):
        scatter(keys.astype(np.int32), out, 0, 1)
    with pytest.raises(TypeError):
        scatter(keys, out.view(np.float32), 0, 1)
    with pytest.raises(ValueError):  # read-only output
        ro = np.empty(16, dtype=np.uint32)
        ro.flags.writeable = False
        scatter(keys, ro, 0, 1)


@st.composite
def _splitter_cases(draw):
    keys = draw(
        arrays(
            dtype=np.uint32,
            shape=st.integers(min_value=0, max_value=600),
            elements=st.one_of(
                st.sampled_from(_EDGE_KEYS),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
        )
    )
    p = draw(st.integers(min_value=1, max_value=1024))
    # Splitters drawn from a small pool (duplicates are certain at large
    # p) that mixes edge values with the keys themselves.
    pool = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_EDGE_KEYS),
                st.sampled_from(keys.tolist()) if keys.size else st.just(0),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    picks = draw(
        arrays(np.intp, p - 1, elements=st.integers(0, len(pool) - 1))
    )
    splitters = np.sort(np.asarray(pool, dtype=np.uint32)[picks])
    return keys, splitters


@settings(max_examples=80, deadline=None)
@given(_splitter_cases())
def test_splitter_sort_and_cut_matches_range_binning(case):
    keys, splitters = case
    before = keys.copy()
    buckets = split_by_splitters(keys, splitters)
    assert len(buckets) == splitters.size + 1
    bounds = np.concatenate(([0], splitters.astype(np.int64), [2**32]))
    wide = keys.astype(np.int64)
    for b, bucket in enumerate(buckets):
        assert bucket.dtype == np.uint32
        mask = (wide >= bounds[b]) & (wide < bounds[b + 1])
        assert np.array_equal(bucket, np.sort(keys[mask]))
    # Sizes equal the range search the stable splitter binning used.
    old = np.bincount(
        np.searchsorted(splitters, keys, side="right"),
        minlength=splitters.size + 1,
    )
    assert [x.shape[0] for x in buckets] == old.tolist()
    assert np.array_equal(np.concatenate(buckets), np.sort(keys))
    assert np.array_equal(keys, before)


def test_phase1_rejects_bad_input():
    keys = uniform_keys(16, rng)
    with pytest.raises(ApplicationError):
        phase1_destination_buckets(keys, 3)
    with pytest.raises(ApplicationError):
        phase1_destination_buckets(keys.astype(np.int64), 4)


@pytest.mark.parametrize("shape", [(), (4, 4), (2, 2, 4)])
def test_binning_rejects_keys_that_are_not_1d(shape):
    keys = np.zeros(shape, dtype=np.uint32)
    with pytest.raises(ApplicationError, match="1-D"):
        split_by_bits(keys, 0, 4)
    with pytest.raises(ApplicationError, match="1-D"):
        phase1_destination_buckets(keys, 4)


def test_split_by_bits_validates():
    keys = uniform_keys(16, rng)
    with pytest.raises(ApplicationError):
        split_by_bits(keys, 0, 3)
    with pytest.raises(ApplicationError):
        split_by_bits(keys, 30, 8)
    with pytest.raises(ApplicationError):
        split_by_bits(keys.astype(np.int32), 0, 4)


def test_cache_bucket_count_rules():
    # >= 2^21 keys: minimum 128 buckets (Section 3.2.1).
    assert cache_bucket_count(2**21, 24 * 1024) >= 128
    # Small inputs need few buckets.
    assert cache_bucket_count(1000, 24 * 1024) == 1
    # Power of two always.
    n = cache_bucket_count(10**6, 24 * 1024)
    assert n & (n - 1) == 0


# --- key generation -----------------------------------------------------------------------
def test_uniform_keys_range_and_dtype():
    k = uniform_keys(10_000, rng)
    assert k.dtype == np.uint32
    # Rough uniformity: mean near 2^31.
    assert abs(float(k.mean()) - 2**31) < 0.05 * 2**32


def test_gaussian_keys_are_concentrated():
    u = uniform_keys(50_000, rng)
    g = gaussian_keys(50_000, rng)
    assert g.std() < 0.7 * u.std()


def test_split_keys_even():
    k = uniform_keys(1000, rng)
    shards = split_keys(k, 4)
    assert [s.shape[0] for s in shards] == [250] * 4
    assert np.array_equal(np.concatenate(shards), k)
    # Read-only views of the caller's array, not copies.
    assert all(np.shares_memory(s, k) for s in shards)
    with pytest.raises(ValueError):
        shards[0][0] = 1
    with pytest.raises(ApplicationError):
        split_keys(k, 3)
