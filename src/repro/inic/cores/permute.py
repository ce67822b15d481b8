"""Final-permutation stream core (Figure 2(b), receive side).

After the all-to-all, processor i holds one M x M block from every
other processor; interleaving them column-block-wise yields its panel of
the transposed matrix.  On the INIC this happens in "Permutation Memory"
as frames are de-packetized — again zero host cost.

``assemble`` is the functional gather: the blocks, in source-rank order,
are placed into the local (M x N) result panel.
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

    def assemble(self, sources: list[int], blocks: list[np.ndarray]) -> np.ndarray:
        """Place block ``k`` (from source rank ``sources[k]``) at column
        band ``k``.

        ``sources`` must be exactly ``0 .. n-1`` in order (a gather's
        :meth:`~repro.inic.card.GatherOp.by_source` order), one M x M
        block each; the result is M x (M * n).  The ranks are checked
        once, and the blocks' shapes once through the concatenated
        panel's shape (so blocks of M rows whose widths differ but sum
        to M * n pass).
        """
        if not blocks:
            raise OffloadError("no blocks to assemble")
        n = len(blocks)
        if sources != list(range(n)):
            raise OffloadError(
                f"source ranks {sources} are not one block each from 0..{n - 1}"
            )
        first = blocks[0]
        if first.ndim != 2 or first.shape[0] != first.shape[1]:
            raise OffloadError(f"blocks must be square, got {first.shape}")
        m = first.shape[0]
        # One copy places every band (cast to the first block's dtype,
        # as band-by-band assignment into a preallocated panel would).
        try:
            out = np.concatenate(blocks, axis=1, dtype=first.dtype, casting="unsafe")
        except ValueError as exc:
            raise OffloadError(f"blocks do not form an {m} x {m * n} panel: {exc}") from None
        if out.shape != (m, m * n):
            raise OffloadError(
                f"blocks form a {out.shape} panel, expected {(m, m * n)}"
            )
        self.bytes_processed += out.nbytes
        return out
