"""Local-transpose stream core (Figure 2(b), send side).

The FFTW-style distributed transpose first transposes each M x M block
of the local M x N panel, then ships block p to processor p.  On the
INIC, this block transpose happens *as the data streams from host memory
into card memory* — the "Local Transpose" box of Figure 2(b) — so it
costs no host time and no extra pass over DRAM.

``apply_panel`` performs the real transpose with numpy (the simulation
is functional); the streaming rate models a 64-bit datapath writing
INIC memory with a transposed address generator.
"""

from __future__ import annotations

import numpy as np

from ...errors import OffloadError
from .base import CoreSpec, StreamCore

__all__ = ["LocalTransposeCore", "local_transpose_blocks"]


def local_transpose_blocks(panel: np.ndarray, n_parts: int) -> list[np.ndarray]:
    """Split a local (M x N) panel into ``n_parts`` M-column blocks and
    transpose each — the per-destination payloads of the FFT transpose.

    ``panel`` has M = N / n_parts rows on each of ``n_parts`` processors.
    All blocks come out of one strided copy: block ``d`` is a
    C-contiguous view equal to ``panel[:, d*w:(d+1)*w].T`` (w = N /
    n_parts).
    """
    if panel.ndim != 2:
        raise OffloadError(f"panel must be 2-D, got shape {panel.shape}")
    m, n = panel.shape
    if n % n_parts != 0:
        raise OffloadError(f"{n} columns do not split into {n_parts} blocks")
    width = n // n_parts
    stacked = np.ascontiguousarray(
        panel.reshape(m, n_parts, width).transpose(1, 2, 0)
    )
    return list(stacked)


class LocalTransposeCore(StreamCore):
    """Transposes M x M blocks in the host->card stream."""

    def __init__(self):
        super().__init__(
            CoreSpec(
                name="local-transpose",
                clbs=700,
                ram_kbits=32,
                bytes_per_cycle=8.0,  # 64-bit address-swizzled write port
                description="block transpose via address generation into card RAM",
            )
        )

    def apply_panel(self, panel: np.ndarray, n_parts: int) -> list[np.ndarray]:
        """Transpose all ``n_parts`` square blocks of a local panel at once
        (:func:`local_transpose_blocks`; square for an in-stream
        swizzle), charging the panel's bytes."""
        blocks = local_transpose_blocks(panel, n_parts)
        if blocks[0].shape[0] != blocks[0].shape[1]:
            raise OffloadError(
                f"local transpose expects square blocks, got {blocks[0].shape[::-1]}"
            )
        self.bytes_processed += panel.nbytes
        return blocks
