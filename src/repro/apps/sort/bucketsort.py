"""Host-side bucket-sort kernels.

Two uses in the paper's sort (Section 3.2):

* **phase 1** — bin local keys into P destination buckets by their top
  ``log2 P`` bits (bucket i goes to processor i);
* **phase 2** — bin received keys into cache-sized buckets before count
  sort ("it is important to first bucket sort the data such that the
  buckets fit in the processor cache"); on the prototype the card only
  pre-bins 16 ways and the host refines each 16th into N buckets
  (Section 6's two-phase scheme).

``split_by_bits`` bins stably by ``n_buckets`` consecutive key bits
starting below ``start_bit`` leading bits; phase 2 and the calibration
use it.

Phase 1 (:func:`phase1_destination_buckets`, and the splitter variant
:func:`repro.apps.sort.sampling.split_by_splitters`) instead sorts the
shard once and cuts it at value edges (:func:`_sort_and_cut`).  Each
destination receives exactly the multiset of keys a stable binning gives
it, so every bucket size — all the simulation times — is unchanged;
only the order inside a bucket differs (ascending, not input order).
That order is never observed: every receiver sorts what it gets in
full, through :func:`repro.apps.sort.countsort.count_sort`, which
itself hands large inputs to ``np.sort`` on the same values.  The
simulated cost of phase 1 comes from
:func:`repro.models.params.bucket_sort_time` either way; sorting once
is just the cheapest host numpy that hands every destination its keys.
"""

from __future__ import annotations

import numpy as np

from ...errors import ApplicationError

__all__ = [
    "split_by_bits",
    "phase1_destination_buckets",
    "phase2_cache_buckets",
    "cache_bucket_count",
]


def _check_pow2(n: int, what: str) -> int:
    if n < 1 or n & (n - 1):
        raise ApplicationError(f"{what} must be a power of two, got {n}")
    return n.bit_length() - 1


def split_by_bits(
    keys: np.ndarray, start_bit: int, n_buckets: int
) -> list[np.ndarray]:
    """Stable-bin ``keys`` by ``log2(n_buckets)`` bits after skipping the
    ``start_bit`` most significant bits."""
    a = np.asarray(keys)
    if a.dtype != np.uint32:
        raise ApplicationError(f"expected uint32 keys, got {a.dtype}")
    bits = _check_pow2(n_buckets, "bucket count")
    if start_bit < 0 or start_bit + bits > 32:
        raise ApplicationError(
            f"bit window [{start_bit}, {start_bit + bits}) outside 32-bit keys"
        )
    if bits == 0:
        return [a.copy()]
    shift = np.uint32(32 - start_bit - bits)
    # Narrowest dtype that holds the bucket index: numpy's stable sort
    # is an LSD radix sort for integers, so its cost scales with the
    # key *width* — uint8/uint16 indices sort several times faster than
    # the equivalent int64 ones (the permutation is identical).
    dtype = np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32
    idx = ((a >> shift) & np.uint32(n_buckets - 1)).astype(dtype)
    order = np.argsort(idx, kind="stable")
    binned = a[order]
    counts = np.bincount(idx, minlength=n_buckets)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return [binned[bounds[b] : bounds[b + 1]] for b in range(n_buckets)]


def _sort_and_cut(keys: np.ndarray, edges: np.ndarray) -> list[np.ndarray]:
    """Sort ``keys`` once and cut at ``edges`` (ascending, keys' dtype).

    Piece i holds the keys in ``[edges[i-1], edges[i])``, ascending; the
    pieces are views of one sorted copy.  ``edges`` must share the keys'
    dtype: a wider one makes ``searchsorted`` promote the whole array.
    """
    ordered = np.sort(keys)
    cuts = np.searchsorted(ordered, edges, side="left").tolist()
    bounds = [0, *cuts, ordered.shape[0]]
    return [ordered[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def phase1_destination_buckets(keys: np.ndarray, p: int) -> list[np.ndarray]:
    """Bucket i of the result belongs on processor i: the keys whose top
    ``log2 p`` bits equal i, in ascending order."""
    a = np.asarray(keys)
    if a.dtype != np.uint32:
        raise ApplicationError(f"expected uint32 keys, got {a.dtype}")
    bits = _check_pow2(p, "bucket count")
    edges = np.arange(1, p, dtype=np.uint32) << np.uint32(32 - bits)
    return _sort_and_cut(a, edges)


def phase2_cache_buckets(
    keys: np.ndarray, p: int, n_buckets: int
) -> list[np.ndarray]:
    """Refine a processor's keys (which share their top log2 P bits)
    into ``n_buckets`` cache-fit buckets."""
    return split_by_bits(keys, _check_pow2(p, "processor count"), n_buckets)


def cache_bucket_count(n_keys: int, keys_per_bucket: int, minimum: int = 128) -> int:
    """Bucket count so each bucket fits cache (Section 3.2.1: at least
    128 buckets from 2^21 keys up); power of two."""
    if n_keys < 0 or keys_per_bucket < 1:
        raise ApplicationError("bad cache-bucket sizing")
    need = max(1, -(-n_keys // keys_per_bucket))
    n = 1
    while n < need:
        n *= 2
    if n_keys >= 2**21:
        n = max(n, minimum)
    return n
