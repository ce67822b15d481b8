"""The INIC's application-specific protocol (policy layer).

Section 4.1: "INICs can use an application specific protocol ... there
should be no packet loss as the total amount of data put into the
network never exceeds the total size of the network buffers (combined
NIC and switch buffers).  The protocol also has the advantage of knowing
exactly how much data to expect; hence, the protocol needs minimal
acknowledgement information."

Two pieces implement that:

* :class:`INICProtoConfig` — framing parameters.  The paper picks a
  1024-byte packet (Section 4.2): small packets are fine because the
  INIC pays no per-packet interrupt or host-CPU cost.
* :class:`TransferPlan` — per-peer expected byte counts for one
  collective phase (each node "knows exactly how much data will be sent
  to and received from every other node", Section 3.1.2).  Completion is
  detected by byte accounting, not ACKs.

The data movement itself is done by the INIC card
(:mod:`repro.inic.card`), which consumes these policies.  The card also
enforces the no-loss invariant: per-destination credit windows, opened
again by one small ``inic-credit`` frame per chunk (docs/protocol.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import config_from_json, config_to_json
from ..errors import ProtocolError
from ..net.addresses import MacAddress
from ..sim.engine import Event, Simulator

__all__ = ["INICProtoConfig", "TransferPlan"]


@dataclass(frozen=True)
class INICProtoConfig:
    """Framing and loss-recovery settings for the custom on-card protocol.

    Field naming follows the repo-wide convention (``max_retries`` /
    ``timeout`` / ``retry_backoff``).
    """

    packet_size: int = 1024  # paper, Section 4.2
    headers: int = 8  # built directly on Ethernet; minimal header
    #: loss recovery: NACK/retransmit rounds per gather before the
    #: operation aborts with :class:`~repro.errors.TransferAborted`.
    #: ``0`` keeps the paper's pure no-loss protocol (a stalled plan
    #: fails loudly instead of recovering) — the default, so ideal-fabric
    #: runs stay bit-identical.
    max_retries: int = 0
    #: seconds of zero gather progress before the first NACK round
    timeout: float = 0.005
    #: multiplier on ``timeout`` between successive rounds
    retry_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.packet_size < 1 or self.headers < 0:
            raise ProtocolError("invalid INIC protocol framing")
        if self.max_retries < 0:
            raise ProtocolError("max_retries must be >= 0")
        if self.timeout <= 0 or self.retry_backoff < 1.0:
            raise ProtocolError("invalid recovery timing parameters")

    def to_json(self) -> dict:
        """JSON-safe dict (round-trips through :meth:`from_json`)."""
        return config_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "INICProtoConfig":
        return config_from_json(cls, doc)


class TransferPlan:
    """Expected receive volume per peer for one communication phase.

    With ``tolerate_surplus`` (set by recovery-enabled cards) a peer may
    deliver more than its expected bytes — a retransmission racing a
    late original — and the excess is clamped and counted instead of
    treated as a protocol violation.
    """

    def __init__(
        self,
        sim: Simulator,
        expected: dict[int, int],
        name: str = "plan",
        tolerate_surplus: bool = False,
    ):
        self.expected = dict(expected)
        self.received = dict.fromkeys(self.expected, 0)
        # One pass over the peers: validate and count the pending ones
        # (an all-to-all builds one plan of p peers per rank and phase).
        pending = 0
        for peer, nbytes in self.expected.items():
            if nbytes > 0:
                pending += 1
            elif nbytes < 0:
                raise ProtocolError(f"negative expected bytes from peer {peer}")
        self.sim = sim
        self.name = name
        self.tolerate_surplus = tolerate_surplus
        self.surplus_bytes = 0
        #: O(1) accounting state (see :meth:`account`)
        self._pending = pending
        self._total_received = 0
        self._complete = sim.event(name=f"{name}.complete")
        if pending == 0:
            self._complete.succeed()

    @property
    def complete(self) -> Event:
        """Fires when every peer's expected bytes have arrived.

        Its value is ``None``: the per-peer counts stay readable in
        :attr:`received`, so completion copies nothing.
        """
        return self._complete

    def total_expected(self) -> int:
        return sum(self.expected.values())

    def total_received(self) -> int:
        return self._total_received

    def account(self, src: MacAddress, nbytes: int) -> None:
        """Record ``nbytes`` arriving from ``src``.

        Accounting is O(1): a pending-peer counter and a running received
        total replace the all-peers scan — ``account`` sits on the
        per-chunk hot path, so at 1024 nodes the scan was O(p) work per
        chunk (O(p^3) per alltoall phase).
        """
        peer = src.value
        exp = self.expected.get(peer)
        if exp is None:
            raise ProtocolError(f"{self.name}: unexpected sender {src}")
        prev = self.received[peer]
        new = prev + nbytes
        if new > exp:
            if not self.tolerate_surplus:
                raise ProtocolError(
                    f"{self.name}: peer {peer} overflowed plan "
                    f"({new} > {exp})"
                )
            self.surplus_bytes += new - exp
            new = exp
        self.received[peer] = new
        self._total_received += new - prev
        if prev < exp <= new:
            self._pending -= 1
            if self._pending == 0 and not self._complete.triggered:
                self._complete.succeed()

    def missing_by_peer(self) -> dict[int, int]:
        """Byte ranges still owed, per incomplete peer — what a recovery
        round asks each sender to re-issue."""
        return {
            peer: self.expected[peer] - self.received[peer]
            for peer in self.expected
            if self.received[peer] < self.expected[peer]
        }
