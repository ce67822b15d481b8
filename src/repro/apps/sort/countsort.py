"""Count sort (Agarwal-style radix/count sort, reference [1]).

The paper's final sorting phase: "Each bucket is sorted with Count
Sort.  The Count Sort is the final sorting phase — with 32 bit integers
and more than 128 buckets there is no need for the final bubble sort
described in [1]."

Reference implementation: least-significant-digit radix sort with 8-bit
digits — four stable counting passes.  Each pass computes the digit
histogram (``np.bincount``), derives bucket offsets by prefix sum, and
scatters keys stably.  The stable scatter uses numpy's stable integer
argsort as its primitive (itself a counting scatter — an explicit
Python loop over tens of millions of keys would be pointlessly slow in
a numpy library; the *algorithm* here is the classic counting sort).
Large inputs take a ``np.sort`` fast path — see :func:`count_sort`.
"""

from __future__ import annotations

import numpy as np

from ...errors import ApplicationError

__all__ = [
    "count_sort",
    "count_sort_inplace",
    "counting_pass",
    "digit_histogram",
    "is_sorted",
]

_DIGIT_BITS = 8
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1
_RADIX = 1 << _DIGIT_BITS


def digit_histogram(keys: np.ndarray, shift: int) -> np.ndarray:
    """Counts of each 8-bit digit at ``shift`` (the 'count' of count sort)."""
    digits = (keys >> np.uint32(shift)) & np.uint32(_DIGIT_MASK)
    return np.bincount(digits, minlength=_RADIX)


def counting_pass(keys: np.ndarray, shift: int) -> np.ndarray:
    """One stable counting-sort pass on the digit at ``shift``."""
    digits = ((keys >> np.uint32(shift)) & np.uint32(_DIGIT_MASK)).astype(np.uint8)
    # Stable scatter into per-digit regions.  argsort(stable) over a
    # 256-value key IS the counting scatter (see module docstring).
    order = np.argsort(digits, kind="stable")
    return keys[order]


def count_sort(keys: np.ndarray) -> np.ndarray:
    """Full 32-bit sort of ``keys``; returns a sorted copy and leaves
    ``keys`` untouched (see :func:`count_sort_inplace`)."""
    return count_sort_inplace(np.array(keys))


def count_sort_inplace(keys: np.ndarray) -> np.ndarray:
    """Sort the writeable 1-D ``uint32`` array ``keys`` in place and
    return it.

    Small inputs run the four 8-bit counting passes (the algorithm the
    paper describes, kept exercised by the kernel tests).  Large inputs
    delegate to ``ndarray.sort``: the keys are plain ``uint32``
    *values*, so every correct sort produces the byte-identical array
    and the counting passes buy nothing but host wall time — the
    *simulated* cost of the paper's count sort comes from
    :func:`repro.models.params.count_sort_time` either way.
    """
    if keys.dtype != np.uint32:
        raise ApplicationError(f"count sort expects uint32 keys, got {keys.dtype}")
    if keys.ndim != 1:
        raise ApplicationError(f"count sort expects a 1-D array, got {keys.shape}")
    if keys.shape[0] >= 1 << 12:
        keys.sort()
        return keys
    out = keys
    for shift in range(0, 32, _DIGIT_BITS):
        out = counting_pass(out, shift)
    keys[:] = out
    return keys


def is_sorted(keys: np.ndarray) -> bool:
    """True if ``keys`` is non-decreasing."""
    a = np.asarray(keys)
    return bool(np.all(a[:-1] <= a[1:])) if a.size else True
