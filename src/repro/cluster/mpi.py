"""SimMPI: a rank-oriented message-passing veneer over the simulation.

The baseline applications (FFTW-style FFT, parallel sort) are written
against this tiny MPI-flavoured interface, exactly as the paper's
baselines run over MPI-on-TCP.  Each rank's code is a generator or
coroutine driven by the DES kernel; sends/recvs return events, so both
``yield ctx.send(...)`` and ``await ctx.send(...)`` work (generator
helpers like ``ctx.compute`` are awaited via
:func:`repro.sim.process.drive`).

Self-sends never touch the network (MPI semantics); they pay a host
memcpy through the memory hierarchy instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ApplicationError
from ..hw.memory import AccessPattern
from ..net.addresses import MacAddress
from ..protocols.base import MessageView
from ..sim.engine import Event, Process
from .builder import Cluster
from .node import Node

__all__ = ["MPIConfig", "RankContext", "Communicator"]


@dataclass(frozen=True)
class MPIConfig:
    """MPI-library layer costs (era: MPICH ch_p4 over TCP, ~2001).

    The paper's baselines run MPI over TCP; the library itself adds
    per-message host costs and, for large messages, an eager/rendezvous
    split: above ``eager_limit`` the sender first posts a
    request-to-send and waits for a clear-to-send, adding a round trip
    — the behaviour contemporary MPICH/LAM exhibited.
    """

    send_cost: float = 80e-6  # send-path library + syscall cost
    recv_match_cost: float = 50e-6  # matching + user-buffer copy cost
    eager_limit: int = 64 * 1024  # rendezvous above this
    control_bytes: int = 32  # RTS/CTS message size

    def __post_init__(self) -> None:
        if self.send_cost < 0 or self.recv_match_cost < 0:
            raise ApplicationError("negative MPI cost")
        if self.eager_limit < 1 or self.control_bytes < 1:
            raise ApplicationError("bad MPI protocol limits")


#: tag space reserved for the rendezvous control channel
_RTS_TAG = 1 << 28
_CTS_TAG_BASE = 1 << 29


class RankContext:
    """What a rank's program sees: its node plus send/recv primitives."""

    def __init__(self, comm: "Communicator", rank: int):
        self.comm = comm
        self.rank = rank
        self.node: Node = comm.cluster.nodes[rank]
        self.sim = comm.cluster.sim
        self.trace = comm.cluster.trace
        self.mpi_config = comm.mpi_config
        #: SPMD collective-phase counter (advanced in lock-step by usage)
        self._phase = 0
        self._rdv_tokens = 0
        self._send_name = f"mpi.snd.{rank}"
        if self.node.tcp is not None:
            self.sim.process(
                self._rendezvous_responder(), name=f"mpi.ctl.{rank}"
            )

    @property
    def size(self) -> int:
        return self.comm.size

    def next_phase_tag(self) -> int:
        """A tag unique to the current collective phase.

        All ranks call collectives in the same order (SPMD), so the
        counter agrees cluster-wide without communication.
        """
        self._phase += 1
        return self.comm.TAG_PHASE_BASE + self._phase

    # -- point to point ------------------------------------------------------------
    def send(
        self, dst: int, nbytes: int, payload: Any = None, tag: int = 0
    ) -> Process:
        """Start an MPI send; returns the send process, which finishes
        (value ``None``) at completion.

        Small messages go eagerly; messages above the MPI eager limit
        first exchange an RTS/CTS handshake with the receiver's library
        (rendezvous), as era MPI implementations over TCP did.

        The process is the completion event itself, so a send costs one
        schedule entry at its end, and an error raised inside the send
        (say a :class:`~repro.errors.ProtocolError`) is thrown into
        whoever waits on it.
        """
        if not 0 <= dst < self.size:
            raise ApplicationError(f"bad destination rank {dst}")
        if dst == self.rank:
            return self._self_send(nbytes, payload, tag)
        return self.sim.process(
            self._send_proc(dst, nbytes, payload, tag), name=self._send_name
        )

    def _send_proc(self, dst: int, nbytes: int, payload: Any, tag: int):
        cfg = self.mpi_config
        tcp = self.node.require_tcp()
        yield from self.node.cpu.busy(cfg.send_cost)
        if nbytes > cfg.eager_limit:
            # Rendezvous: RTS carries a token; wait for the CTS echo.
            self._rdv_tokens += 1
            token = (self.rank << 16) | (self._rdv_tokens & 0xFFFF)
            tcp.send(
                MacAddress(dst),
                cfg.control_bytes,
                payload=token,
                tag=_RTS_TAG,
            )
            yield tcp.recv(src=MacAddress(dst), tag=_CTS_TAG_BASE + token)
        yield tcp.send(MacAddress(dst), nbytes, payload=payload, tag=tag)

    def _rendezvous_responder(self):
        """Library-side progress loop answering RTS with CTS."""
        cfg = self.mpi_config
        tcp = self.node.require_tcp()
        while True:
            msg = None  # drop the last RTS while parked
            msg = yield tcp.recv(tag=_RTS_TAG)
            self.node.cpu.steal(cfg.recv_match_cost)
            tcp.send(
                msg.src,
                cfg.control_bytes,
                tag=_CTS_TAG_BASE + int(msg.payload),
            )

    def _self_send(self, nbytes: int, payload: Any, tag: int) -> Process:
        """MPI self-send: one memcpy, no wire; returns the copy process."""
        copy_time = self.node.hierarchy.touch_time(
            2 * nbytes, pattern=AccessPattern.STREAM
        )

        def proc():
            yield from self.node.cpu.busy(copy_time)
            self.node.require_tcp().mailbox.deliver(
                MessageView(
                    src=MacAddress(self.rank), tag=tag, nbytes=nbytes, payload=payload
                )
            )

        return self.sim.process(proc(), name=f"selfsend.{self.rank}")

    def recv(self, src: Optional[int] = None, tag: Optional[int] = None) -> Event:
        """Event yielding the next matching :class:`MessageView`.

        Charges the MPI matching/copy cost when the message lands.
        """
        addr = MacAddress(src) if src is not None else None
        ev = self.node.require_tcp().recv(src=addr, tag=tag)
        ev.add_callback(
            lambda _e: self.node.cpu.steal(self.mpi_config.recv_match_cost)
        )
        return ev

    # -- compute helpers -------------------------------------------------------------
    def compute(self, seconds: float):
        """Generator: occupy this rank's CPU for ``seconds``."""
        yield from self.node.cpu.busy(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankContext {self.rank}/{self.size}>"


class Communicator:
    """The cluster-wide rank namespace."""

    TAG_PHASE_BASE = 1 << 20

    def __init__(self, cluster: Cluster, mpi_config: MPIConfig = MPIConfig()):
        self.cluster = cluster
        self.mpi_config = mpi_config
        self.ranks = [RankContext(self, r) for r in range(cluster.size)]

    @property
    def size(self) -> int:
        return self.cluster.size

    def __getitem__(self, rank: int) -> RankContext:
        return self.ranks[rank]

    def __iter__(self):
        return iter(self.ranks)
