"""Stream-core abstraction.

A *stream core* is a hardware function block in the INIC datapath
(the rectangles of Figures 2(b), 3(b) and 7): it transforms data at a
fixed number of bytes per fabric clock cycle as the data flows through.

Every core contributes its FPGA resources and its streaming
:meth:`~StreamCore.rate`; the card runs its datapath at the slowest
configured core's rate.  A passive core in the datapath costs zero
*extra* time whenever its rate exceeds the surrounding transfer rates —
the paper's "processing data as it passes through the device at zero
cost" (Section 2).

Four cores also carry the data, so simulated applications produce
bit-correct results: the local transpose (``apply_panel``), the final
permutation (``assemble``), the reduce core (``apply``, called by a
gather) and the datatype engine (``gather``/``scatter``).  The bucket
sort core does not: the INIC sort bins the keys on the host
(:func:`~repro.apps.sort.bucketsort.phase1_destination_buckets`) and
charges the core's ``bytes_processed`` for them.  The other cores
(packetizer, FIFO, broadcast) model resources and rate only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ConfigurationError

__all__ = ["CoreSpec", "StreamCore"]


@dataclass(frozen=True)
class CoreSpec:
    """Static properties of a core design."""

    name: str
    clbs: int
    ram_kbits: int
    bytes_per_cycle: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.clbs < 0 or self.ram_kbits < 0:
            raise ConfigurationError(f"core {self.name!r}: negative resources")
        if self.bytes_per_cycle <= 0:
            raise ConfigurationError(f"core {self.name!r}: bad throughput")


class StreamCore:
    """Base class: a datapath block streaming ``bytes_per_cycle``."""

    def __init__(self, spec: CoreSpec):
        self.spec = spec
        #: bytes pushed through this core (statistics)
        self.bytes_processed = 0.0

    def rate(self, clock_hz: float) -> float:
        """Streaming throughput in bytes/s at the given fabric clock."""
        if clock_hz <= 0:
            raise ConfigurationError("clock must be > 0")
        return self.spec.bytes_per_cycle * clock_hz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec.name!r} {self.spec.clbs} CLBs>"
