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
starting below ``start_bit`` leading bits: each bucket holds its keys in
input order.  Phase 1 (:func:`phase1_destination_buckets`) is
``split_by_bits(keys, 0, p)``; phase 2 and the calibration use it too.

When the optional extension ``repro.apps.sort._cbucket`` is built
(``python setup.py build_ext --inplace``), ``split_by_bits`` runs its
compiled counting scatter: one histogram pass, one scatter pass into a
fresh array.  The numpy body (a stable argsort of the bucket index) is
the reference and the fallback; both place every key at the same
position, so the buckets are byte-identical.  ``compiled`` says which
one runs.

The simulated cost of phase 1 comes from
:func:`repro.models.params.bucket_sort_time` either way, and every
receiver sorts what it gets in full, so the host binning only has to
hand every destination its keys as cheaply as it can.  The splitter
variant (:func:`repro.apps.sort.sampling.split_by_splitters`) sorts the
shard once and cuts it at the splitters instead.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ...errors import ApplicationError

try:  # optional compiled scatter (python setup.py build_ext --inplace)
    from . import _cbucket
except ImportError:  # pragma: no cover - depends on the build
    _cbucket = None

#: True when ``split_by_bits`` bins with the compiled scatter.
compiled = _cbucket is not None

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
    ``start_bit`` most significant bits.

    The buckets are views of one fresh array; ``keys`` is not changed.
    """
    a = np.asarray(keys)
    if a.dtype != np.uint32:
        raise ApplicationError(f"expected uint32 keys, got {a.dtype}")
    if a.ndim != 1:
        raise ApplicationError(f"expected a 1-D key array, got shape {a.shape}")
    bits = _check_pow2(n_buckets, "bucket count")
    if start_bit < 0 or start_bit + bits > 32:
        raise ApplicationError(
            f"bit window [{start_bit}, {start_bit + bits}) outside 32-bit keys"
        )
    if bits == 0:
        return [a.copy()]
    shift = 32 - start_bit - bits
    if _cbucket is not None:
        binned = np.empty(a.shape, dtype=np.uint32)
        counts = _cbucket.scatter(a, binned, shift, n_buckets - 1)
        ends = list(accumulate(counts))
        return [binned[lo:hi] for lo, hi in zip([0, *ends], ends)]
    return _split_by_bits_numpy(a, shift, n_buckets)


def _split_by_bits_numpy(
    a: np.ndarray, shift: int, n_buckets: int
) -> list[np.ndarray]:
    """The reference body of :func:`split_by_bits` (checked 1-D uint32
    ``a``, at least two buckets): a stable argsort of the bucket index."""
    bits = n_buckets.bit_length() - 1
    # Narrowest dtype that holds the bucket index: numpy's stable sort
    # is an LSD radix sort for integers, so its cost scales with the
    # key *width* — uint8/uint16 indices sort several times faster than
    # the equivalent int64 ones (the permutation is identical).
    dtype = np.uint8 if bits <= 8 else np.uint16 if bits <= 16 else np.uint32
    idx = ((a >> np.uint32(shift)) & np.uint32(n_buckets - 1)).astype(dtype)
    order = np.argsort(idx, kind="stable")
    binned = a[order]
    counts = np.bincount(idx, minlength=n_buckets)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return [binned[bounds[b] : bounds[b + 1]] for b in range(n_buckets)]


def phase1_destination_buckets(keys: np.ndarray, p: int) -> list[np.ndarray]:
    """Bucket i of the result belongs on processor i: the keys whose top
    ``log2 p`` bits equal i, in input order."""
    return split_by_bits(keys, 0, p)


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
