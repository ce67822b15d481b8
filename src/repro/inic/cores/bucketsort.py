"""Bucket-sort stream core (Figures 3(b) and 7).

Streams 32-bit keys into ``n_buckets`` bins by their top bits, as the
data crosses the card.  Resource usage grows with the bucket count (each
bucket needs a bin FIFO, a fill counter and a memory region pointer), so
the bucket count a card can support is decided by CLB arithmetic against
its FPGA fabric — this is exactly why the prototype "must be performed
in two phases.  The card sorts the data into 16 buckets and the host
sorts each of those buckets into N buckets" (Section 6).

The core carries no keys in the simulator: the INIC sort bins them on
the host (:func:`~repro.apps.sort.bucketsort.phase1_destination_buckets`)
and charges the bytes to this core's ``bytes_processed``.
"""

from __future__ import annotations

from ...errors import OffloadError
from .base import CoreSpec, StreamCore

__all__ = ["BucketSortCore", "bucket_sort_core_clbs", "max_buckets_for_clbs"]

#: control/state machine cost independent of bucket count
_BASE_CLBS = 512
#: per-bucket cost: bin FIFO, threshold counter, region pointer
_PER_BUCKET_CLBS = 64
#: per-bucket on-chip staging (kilobits)
_PER_BUCKET_RAM_KBITS = 0.5


def bucket_sort_core_clbs(n_buckets: int) -> int:
    """CLBs needed for an ``n_buckets`` binning core."""
    if n_buckets < 2:
        raise OffloadError("bucket sort needs at least 2 buckets")
    return _BASE_CLBS + _PER_BUCKET_CLBS * n_buckets


def max_buckets_for_clbs(clb_budget: int) -> int:
    """Largest power-of-two bucket count fitting in ``clb_budget`` CLBs."""
    n = 2
    while bucket_sort_core_clbs(n * 2) <= clb_budget:
        n *= 2
    if bucket_sort_core_clbs(n) > clb_budget:
        raise OffloadError(f"not even 2 buckets fit in {clb_budget} CLBs")
    return n


class BucketSortCore(StreamCore):
    """Bins a stream of uint32 keys by their ``log2(n_buckets)`` top bits."""

    def __init__(self, n_buckets: int):
        if n_buckets < 2 or n_buckets & (n_buckets - 1):
            raise OffloadError(
                f"bucket count must be a power of two >= 2, got {n_buckets}"
            )
        self.n_buckets = n_buckets
        super().__init__(
            CoreSpec(
                name=f"bucket-sort-{n_buckets}",
                clbs=bucket_sort_core_clbs(n_buckets),
                ram_kbits=int(_PER_BUCKET_RAM_KBITS * n_buckets) + 8,
                bytes_per_cycle=4.0,  # one 32-bit key per cycle
                description=f"{n_buckets}-way top-bits binning",
            )
        )
