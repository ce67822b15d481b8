"""INIC on-card memory.

The ACEII card has "limited memory attached to the FPGAs" (Section 5);
the ideal INIC is "a single chip with external RAM" (Section 5).  The
model is a capacity plus a bandwidth number used by cores whose work is
memory-bound — the paper's
reason to *keep count sort on the host*: "cache memory bandwidth on a
commodity processor is much higher than the comparable memory bandwidth
for an INIC" (Section 3.2.2).
"""

from __future__ import annotations

from ..errors import INICError
from ..sim.engine import Simulator

__all__ = ["INICMemory"]


class INICMemory:
    """Card SRAM/SDRAM: its size and its bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        bandwidth: float,
        name: str = "inic-mem",
    ):
        if capacity <= 0:
            raise INICError("INIC memory capacity must be > 0")
        if bandwidth <= 0:
            raise INICError("INIC memory bandwidth must be > 0")
        self.sim = sim
        self.capacity = int(capacity)
        self.bandwidth = float(bandwidth)
        self.name = name

    def touch_time(self, nbytes: float) -> float:
        """Seconds for a memory-bound pass over ``nbytes`` on the card."""
        if nbytes < 0:
            raise INICError("negative byte count")
        return nbytes / self.bandwidth

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<INICMemory {self.name!r} {self.capacity} B>"
