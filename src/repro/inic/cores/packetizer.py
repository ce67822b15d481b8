"""Packetize / de-packetize cores (present in every INIC design).

These are the MAC-adjacent blocks of Figures 2(b)/3(b): they frame card
memory into the custom protocol's packets and strip headers on the way
in.  They stand in a design for their FPGA area; the card datapath does
the framing, at its protocol's packet size
(``CardSpec.proto.packet_size``, 1024 B in the paper).
"""

from __future__ import annotations

from .base import CoreSpec, StreamCore

__all__ = ["PacketizerCore", "DepacketizerCore"]


class PacketizerCore(StreamCore):
    """Frames outgoing card-memory data into protocol packets."""

    def __init__(self) -> None:
        super().__init__(
            CoreSpec(
                name="packetize",
                clbs=250,
                ram_kbits=8,
                bytes_per_cycle=8.0,
                description="packet framing onto the MAC",
            )
        )


class DepacketizerCore(StreamCore):
    """Strips protocol headers from incoming MAC frames."""

    def __init__(self) -> None:
        super().__init__(
            CoreSpec(
                name="depacketize",
                clbs=250,
                ram_kbits=8,
                bytes_per_cycle=8.0,
                description="header strip + plan accounting",
            )
        )
