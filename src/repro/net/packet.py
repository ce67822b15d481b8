"""Frames: the unit of simulated network transfer.

A :class:`Frame` models one Ethernet frame *or*, at reduced fidelity, a
quantum of ``frame_count`` back-to-back MTU frames treated as a single
simulation event (DESIGN.md §7).  Either way it knows:

* logical payload byte count (what the application asked to move),
* on-wire byte count (payload + per-frame header/preamble/IFG overhead),
* an optional *payload object* — a real numpy array or application
  message riding along so the simulation is functional, not just timed.

Header overhead constants follow the real protocols so the bandwidth
numbers work out: a 1500-byte TCP segment on the wire costs
1500 + 38 (Ethernet + preamble + IFG) + 40 (IP + TCP) bytes of time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from ..errors import PacketError
from .addresses import MacAddress

__all__ = [
    "ETHERNET_MTU",
    "ETHERNET_OVERHEAD",
    "IP_TCP_HEADERS",
    "MIN_FRAME_PAYLOAD",
    "Frame",
    "Train",
    "wire_bytes",
]

#: standard Ethernet MTU (payload bytes per frame)
ETHERNET_MTU = 1500
#: Ethernet framing cost per frame: 14 hdr + 4 FCS + 8 preamble + 12 IFG
ETHERNET_OVERHEAD = 38
#: IPv4 + TCP headers without options
IP_TCP_HEADERS = 40
#: minimum Ethernet payload (frames are padded up to this)
MIN_FRAME_PAYLOAD = 46

_frame_ids = itertools.count()


def wire_bytes(payload: int, per_frame_headers: int, frame_count: int = 1) -> int:
    """On-wire bytes for ``payload`` split over ``frame_count`` frames."""
    if payload < 0 or frame_count < 1:
        raise PacketError(f"bad frame geometry payload={payload} count={frame_count}")
    padded = max(payload, MIN_FRAME_PAYLOAD * frame_count)
    return padded + frame_count * (ETHERNET_OVERHEAD + per_frame_headers)


@dataclass(slots=True)
class Frame:
    """One simulated wire transfer unit.

    Attributes
    ----------
    src, dst:
        station addresses.
    payload_bytes:
        logical data bytes carried.
    headers:
        per-frame protocol headers *above* Ethernet (e.g. 40 for TCP/IP,
        small for the INIC protocol).
    frame_count:
        how many physical frames this event stands for (fidelity quantum).
    kind:
        protocol discriminator ("tcp", "tcp-ack", "inic", "raw", ...).
    seq:
        protocol sequence number (byte offset for TCP-like streams).
    payload:
        optional functional payload (numpy array slice, message object).
    meta:
        free-form annotations (flow ids, timestamps, experiment tags).
    """

    src: MacAddress
    dst: MacAddress
    payload_bytes: int
    headers: int = IP_TCP_HEADERS
    frame_count: int = 1
    kind: str = "raw"
    seq: int = 0
    payload: Any = None
    meta: dict[str, Any] = field(default_factory=dict)
    uid: int = field(default_factory=_frame_ids.__next__)
    #: total on-wire bytes (drives serialization time) — computed once
    #: at construction; the geometry fields are never mutated after
    #: construction, and this is read several times per frame along the
    #: fabric path, so a plain attribute beats a memoizing property
    wire_size: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        payload = self.payload_bytes
        count = self.frame_count
        headers = self.headers
        if payload < 0:
            raise PacketError(f"negative payload {payload}")
        if count < 1:
            raise PacketError(f"frame_count must be >= 1, got {count}")
        if headers < 0:
            raise PacketError(f"negative header size {headers}")
        # ``wire_bytes`` inlined: the geometry is already validated, and
        # every simulated transfer constructs a frame.
        self.wire_size = max(payload, MIN_FRAME_PAYLOAD * count) + count * (
            ETHERNET_OVERHEAD + headers
        )

    def clone_for(self, dst: MacAddress) -> "Frame":
        """Copy addressed to a different station (for broadcast fan-out)."""
        return Frame(
            src=self.src,
            dst=dst,
            payload_bytes=self.payload_bytes,
            headers=self.headers,
            frame_count=self.frame_count,
            kind=self.kind,
            seq=self.seq,
            payload=self.payload,
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame#{self.uid} {self.kind} {self.src}->{self.dst} "
            f"{self.payload_bytes}B x{self.frame_count} seq={self.seq}>"
        )


class Train:
    """A sender's frame train in columns: the exchange-phase fast path's
    unit of transfer (:mod:`repro.net.flowclock`).

    Every frame of a train shares its source, protocol tag (``op``),
    per-frame ``headers`` and ``kind``, so those are set once.  Trains
    are credit-free: a card sends one only when its flow window cannot
    overrun, and no train frame reaches the card's credit-returning
    receive loop.  Frame ``i`` is the ``i``-th entry of the parallel
    per-frame columns: ``dst``, ``payload_bytes``, ``wire_size``,
    ``frame_count``, ``payload``, ``last``, ``total`` (its message's
    byte count) and ``times`` (its logical send time, non-decreasing).
    The fabric, its delivery batcher and the receiving card read the
    columns directly; :meth:`frame` builds the equivalent :class:`Frame`
    for a receiving card's backlog of a gather not yet posted.

    :meth:`append` validates like :class:`Frame`; a hot producer may
    append to the columns itself, keeping them equally long and
    ``wire_size`` equal to :func:`wire_bytes` of the entry.
    """

    __slots__ = (
        "src",
        "op",
        "headers",
        "kind",
        "dst",
        "payload_bytes",
        "wire_size",
        "frame_count",
        "payload",
        "last",
        "total",
        "times",
    )

    #: the per-frame columns, all the same length
    COLUMNS = (
        "dst",
        "payload_bytes",
        "wire_size",
        "frame_count",
        "payload",
        "last",
        "total",
        "times",
    )

    def __init__(
        self,
        src: MacAddress,
        headers: int,
        kind: str = "raw",
        op: Any = None,
    ):
        if headers < 0:
            raise PacketError(f"negative header size {headers}")
        self.src = src
        self.op = op
        self.headers = headers
        self.kind = kind
        self.dst: list[MacAddress] = []
        self.payload_bytes: list[int] = []
        self.wire_size: list[int] = []
        self.frame_count: list[int] = []
        self.payload: list[Any] = []
        self.last: list[bool] = []
        self.total: list[int] = []
        self.times: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def append(
        self,
        dst: MacAddress,
        payload_bytes: int,
        at: float,
        frame_count: int = 1,
        payload: Any = None,
        last: bool = False,
        total: int = 0,
    ) -> None:
        """Add one frame, sent at logical time ``at``."""
        self.wire_size.append(wire_bytes(payload_bytes, self.headers, frame_count))
        self.dst.append(dst)
        self.payload_bytes.append(payload_bytes)
        self.frame_count.append(frame_count)
        self.payload.append(payload)
        self.last.append(last)
        self.total.append(total)
        self.times.append(at)

    def frame(self, i: int) -> Frame:
        """Frame ``i`` as a :class:`Frame` (a fresh object per call)."""
        meta = {
            "op": self.op,
            "last": self.last[i],
            "total": self.total[i],
        }
        return Frame(
            src=self.src,
            dst=self.dst[i],
            payload_bytes=self.payload_bytes[i],
            headers=self.headers,
            frame_count=self.frame_count[i],
            kind=self.kind,
            payload=self.payload[i],
            meta=meta,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Train {self.kind} from {self.src} op={self.op} x{len(self)}>"
