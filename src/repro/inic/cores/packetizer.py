"""Packetize / de-packetize cores (present in every INIC design).

These are the MAC-adjacent blocks of Figures 2(b)/3(b): they frame card
memory into the custom protocol's 1024-byte packets and strip headers on
the way in.  Their functional job in the simulator is bookkeeping
(chunk geometry); the real framing happens in the card datapath.
"""

from __future__ import annotations

from ...errors import OffloadError
from .base import CoreSpec, StreamCore

__all__ = ["PacketizerCore", "DepacketizerCore"]


class PacketizerCore(StreamCore):
    """Frames outgoing card-memory data into protocol packets."""

    def __init__(self, packet_size: int = 1024):
        if packet_size < 1:
            raise OffloadError("packet size must be >= 1")
        self.packet_size = packet_size
        super().__init__(
            CoreSpec(
                name="packetize",
                clbs=250,
                ram_kbits=8,
                bytes_per_cycle=8.0,
                description=f"{packet_size}-byte framing onto the MAC",
            )
        )


class DepacketizerCore(StreamCore):
    """Strips protocol headers from incoming MAC frames."""

    def __init__(self, packet_size: int = 1024):
        if packet_size < 1:
            raise OffloadError("packet size must be >= 1")
        self.packet_size = packet_size
        super().__init__(
            CoreSpec(
                name="depacketize",
                clbs=250,
                ram_kbits=8,
                bytes_per_cycle=8.0,
                description="header strip + plan accounting",
            )
        )
