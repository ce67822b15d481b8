"""Frame-train batching at the source (CHUNK fidelity).

The simulator's unit of work is a :class:`~repro.net.packet.Frame`, which
may stand for ``frame_count`` back-to-back physical MTU frames of one
message (DESIGN.md §7).  This module decides *how many* frames one event
may stand for, with two pure rules whose parameters are constants:

* :func:`choose_quantum` — the static rule: about
  :data:`TARGET_EVENTS` events per message, capped by the calling
  stack's own limit (TCP 16 frames, the INIC 64 packets);
* :func:`adaptive_quantum` — the timing rule.  A train of ``q`` frames
  is serialized as one unit, so at every store-and-forward stage its
  first frame's payload is held back by up to ``(q - 1)`` frame times
  relative to the per-frame schedule.  The quantum is the largest that
  keeps this added latency within :data:`TIMING_TOLERANCE` per hop:

      q  <=  1 + TIMING_TOLERANCE / frame_wire_time

  capped at :data:`MAX_TRAIN`.  A Gigabit Ethernet sender (12.3 us per
  MTU frame) may batch ~17 frames per event while a Fast Ethernet
  sender (123 us per frame) may batch only ~2 — the *event count*
  adapts to the wire so the *timing error* stays fixed.

TCP's chunk quantum and the INIC's ``_chunks_of`` each take the larger
of the two rules, then apply their own structural cap (TCP: a quarter
of the congestion/receive window; the INIC: a quarter of the
flow-control window) so batching never changes windowing arithmetic,
only event granularity.  Switches and NICs forward each train
unchanged.  ``TCPConfig(per_frame=True)`` forces quantum 1 in both
rules; the fidelity tests compare batched runs against it.
"""

from __future__ import annotations

from ..errors import PacketError

__all__ = [
    "MAX_TRAIN",
    "TARGET_EVENTS",
    "TIMING_TOLERANCE",
    "adaptive_quantum",
    "choose_quantum",
]

#: the static rule's aim: about this many events per message
TARGET_EVENTS = 48

#: seconds of extra store-and-forward latency a train may add per hop:
#: 200 us of pipeline-fill slack keeps millisecond-scale figure sweeps
#: within a few percent (docs/performance.md) while letting the INIC
#: reach window/4 chunks
TIMING_TOLERANCE = 200e-6

#: hard cap on frames per event, whatever the tolerance allows
MAX_TRAIN = 256


def choose_quantum(total_units: int, max_quantum: int) -> int:
    """Frames per event so a transfer of ``total_units`` frames costs
    about :data:`TARGET_EVENTS` events, capped at ``max_quantum`` to
    keep windowing math honest."""
    if total_units < 0:
        raise PacketError(f"negative unit count {total_units}")
    if max_quantum < 1:
        raise PacketError(f"max_quantum must be >= 1, got {max_quantum}")
    if total_units <= TARGET_EVENTS:
        return 1
    return min(max_quantum, -(-total_units // TARGET_EVENTS))


def adaptive_quantum(total_units: int, unit_wire_time: float) -> int:
    """Largest frames-per-event quantum within :data:`TIMING_TOLERANCE`.

    Parameters
    ----------
    total_units:
        physical frames (or packets) in the transfer; the quantum never
        exceeds it.
    unit_wire_time:
        seconds to serialize one unit on the constraining wire.  Pass 0
        (or negative) when the rate is unknown — the tolerance bound is
        then skipped and only :data:`MAX_TRAIN` applies.
    """
    if total_units < 0:
        raise PacketError(f"negative unit count {total_units}")
    if total_units <= 1:
        return 1
    quantum = MAX_TRAIN
    if unit_wire_time > 0:
        quantum = min(quantum, 1 + int(TIMING_TOLERANCE / unit_wire_time))
    return max(1, min(quantum, total_units))
