"""Final-permutation stream core (Figure 2(b), receive side).

After the all-to-all, processor i holds one M x M block from every
other processor; interleaving them column-block-wise yields its panel of
the transposed matrix.  On the INIC this happens in "Permutation Memory"
as frames are de-packetized — again zero host cost.

``assemble`` is the functional gather: blocks keyed by source rank are
placed into the local (M x N) result panel.
"""

from __future__ import annotations

import numpy as np

from ...errors import OffloadError
from .base import CoreSpec, StreamCore

__all__ = ["FinalPermutationCore"]


class FinalPermutationCore(StreamCore):
    """Interleaves received blocks into the transposed panel."""

    def __init__(self):
        super().__init__(
            CoreSpec(
                name="final-permutation",
                clbs=650,
                ram_kbits=48,
                bytes_per_cycle=8.0,
                description="block interleave via permutation memory addressing",
            )
        )

    def assemble(self, blocks_by_source: dict[int, np.ndarray]) -> np.ndarray:
        """Place block ``p`` (from source rank p) at column band p.

        Each block is M x M; the result is M x (M * n_sources).
        """
        if not blocks_by_source:
            raise OffloadError("no blocks to assemble")
        ranks = sorted(blocks_by_source)
        if ranks != list(range(len(ranks))):
            raise OffloadError(f"non-contiguous source ranks {ranks}")
        first = blocks_by_source[0]
        if first.ndim != 2 or first.shape[0] != first.shape[1]:
            raise OffloadError(f"blocks must be square, got {first.shape}")
        m = first.shape[0]
        blocks = [blocks_by_source[r] for r in ranks]
        for r, block in zip(ranks, blocks):
            if block.shape != (m, m):
                raise OffloadError(
                    f"block {r} has shape {block.shape}, expected {(m, m)}"
                )
        # One copy places every band (cast to the first block's dtype,
        # as band-by-band assignment into a preallocated panel would).
        out = np.concatenate(blocks, axis=1, dtype=first.dtype, casting="unsafe")
        for block in blocks:
            self.bytes_processed += block.nbytes
        return out

    def apply(self, data: np.ndarray, **context) -> np.ndarray:
        """Per-block pass-through (placement happens in ``assemble``)."""
        self.bytes_processed += data.nbytes
        return data
