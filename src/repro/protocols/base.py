"""Transport abstractions shared by all protocol stacks.

A *transport* moves application messages (byte counts plus optional
functional payload objects) between stations.  Two implementations:

* :class:`~repro.protocols.tcp.TCPStack` — the paper's Gigabit/Fast
  Ethernet baseline (host TCP/IP),
* the INIC's on-card protocol (:mod:`repro.protocols.inicproto`).

Received messages land in a :class:`Mailbox` supporting blocking,
selectively matched receives — the foundation for the SimMPI layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..net.addresses import MacAddress
from ..sim.engine import Event, Simulator

__all__ = ["MessageView", "Mailbox", "next_message_id"]

_message_ids = [0]


def next_message_id() -> int:
    """Globally unique application-message id (for frame tagging)."""
    _message_ids[0] += 1
    return _message_ids[0]


@dataclass
class MessageView:
    """A delivered application message."""

    src: MacAddress
    tag: int
    nbytes: int
    payload: Any = None
    meta: dict[str, Any] = field(default_factory=dict)


class Mailbox:
    """Tag/source-matched blocking receive queue.

    ``recv(src, tag)`` matches the oldest message whose source and tag
    agree with the non-``None`` criteria (MPI-style wildcards).
    """

    def __init__(self, sim: Simulator, name: str = "mailbox"):
        self.sim = sim
        self.name = name
        self._recv_name = f"{name}.recv"
        self._messages: deque[MessageView] = deque()
        self._waiters: deque[tuple[Optional[MacAddress], Optional[int], Event]] = deque()

    def deliver(self, message: MessageView) -> None:
        """Called by a transport when a message completes reassembly."""
        for i, (src, tag, ev) in enumerate(self._waiters):
            if self._matches(message, src, tag):
                del self._waiters[i]
                ev.succeed(message)
                return
        self._messages.append(message)

    @staticmethod
    def _matches(
        m: MessageView, src: Optional[MacAddress], tag: Optional[int]
    ) -> bool:
        return (src is None or m.src == src) and (tag is None or m.tag == tag)

    def recv(
        self, src: Optional[MacAddress] = None, tag: Optional[int] = None
    ) -> Event:
        """Event that fires with the next matching :class:`MessageView`.

        A message that has already arrived resolves the event inline.
        """
        for i, m in enumerate(self._messages):
            if self._matches(m, src, tag):
                del self._messages[i]
                # Already here: the event is born processed (as
                # ``Store.get`` resolves a ready item), so a waiting
                # process continues inline, with no schedule entry.
                ev = Event(self.sim, self._recv_name)
                ev.callbacks = None
                ev._value = m
                return ev
        ev = self.sim.event(name=self._recv_name)
        self._waiters.append((src, tag, ev))
        return ev

    def pending(self) -> int:
        return len(self._messages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Mailbox {self.name!r} {len(self._messages)} queued, "
            f"{len(self._waiters)} waiting>"
        )

