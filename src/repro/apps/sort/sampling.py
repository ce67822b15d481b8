"""Sample-based splitter selection for skewed key distributions.

Section 3.2: uniform keys are assumed "to focus on evaluating the basic
I/O and computational performance", and the paper notes that "as others
have recognized, sampling in a pre-sort phase helps address the
shortcomings of our assumption by leading to a more balanced workload."

This module implements that pre-sort phase: each rank samples its local
keys; the samples are gathered, sorted, and P-1 splitters chosen by
regular sampling; destination buckets are then formed by splitter
search instead of top bits.  With splitters, the Gaussian-ish keys of
:func:`repro.apps.sort.keygen.gaussian_keys` distribute evenly where
top-bits binning would overload the middle ranks.

Works with both the host baseline and the INIC (the card's binning core
is configured with splitter registers instead of a bit mask — same
stream rate, so the offload story is unchanged).
"""

from __future__ import annotations

import numpy as np

from ...errors import ApplicationError

__all__ = [
    "sample_local",
    "choose_splitters",
    "split_by_splitters",
    "imbalance",
]


def sample_local(
    keys: np.ndarray, oversample: int, p: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``oversample * p`` sample keys from a local partition."""
    if oversample < 1 or p < 1:
        raise ApplicationError("oversample and p must be >= 1")
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=keys.dtype)
    count = min(n, oversample * p)
    idx = rng.choice(n, size=count, replace=False)
    return keys[idx]


def choose_splitters(all_samples: np.ndarray, p: int) -> np.ndarray:
    """P-1 splitters by regular sampling of the sorted sample pool."""
    if p < 1:
        raise ApplicationError("p must be >= 1")
    if p == 1:
        return np.empty(0, dtype=all_samples.dtype)
    if all_samples.size < p - 1:
        raise ApplicationError(
            f"need at least {p - 1} samples, got {all_samples.size}"
        )
    s = np.sort(all_samples)
    positions = (np.arange(1, p) * s.size) // p
    return s[positions]


def split_by_splitters(
    keys: np.ndarray, splitters: np.ndarray
) -> list[np.ndarray]:
    """Partition ``keys`` into ``len(splitters)+1`` range buckets.

    Bucket i holds keys in [splitters[i-1], splitters[i]), ascending:
    the shard is sorted once and cut at the splitters, so the buckets are
    views of one sorted copy and their concatenation is ``np.sort(keys)``.
    Every receiver sorts what it gets in full, so the order inside a
    bucket is never observed.  ``splitters`` must share the keys' dtype:
    a wider one makes ``searchsorted`` promote the whole array.
    """
    ordered = np.sort(keys)
    cuts = np.searchsorted(ordered, splitters, side="left").tolist()
    bounds = [0, *cuts, ordered.shape[0]]
    return [ordered[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def imbalance(bucket_sizes: list[int]) -> float:
    """max/mean bucket-size ratio (1.0 = perfectly balanced)."""
    if not bucket_sizes:
        raise ApplicationError("no buckets")
    mean = sum(bucket_sizes) / len(bucket_sizes)
    if mean == 0:
        return 1.0
    return max(bucket_sizes) / mean
