"""FIFO core: the elastic buffers of Figures 2(b)/3(b).

Decouples datapath stages clocked at different effective rates (PCI
side vs MAC side).  Resource cost is dominated by the on-chip RAM.
"""

from __future__ import annotations

from ...errors import OffloadError
from .base import CoreSpec, StreamCore

__all__ = ["FIFOCore"]


class FIFOCore(StreamCore):
    """An on-chip elastic buffer of ``depth_bytes``."""

    def __init__(self, depth_bytes: int = 4096, name: str = "fifo"):
        if depth_bytes < 1:
            raise OffloadError("FIFO depth must be >= 1 byte")
        super().__init__(
            CoreSpec(
                name=name,
                clbs=100,
                ram_kbits=max(1, depth_bytes * 8 // 1024),
                bytes_per_cycle=8.0,
                description=f"{depth_bytes}-byte elastic buffer",
            )
        )
