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

from ..errors import ApplicationError, ProtocolError
from ..hw.memory import AccessPattern
from ..net.addresses import MacAddress
from ..protocols.base import MessageView
from ..sim.engine import Event
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
    ) -> Event:
        """Start an MPI send; returns its completion event, which fires
        (value ``None``) when the send is done.

        Small messages go eagerly; messages above the MPI eager limit
        first exchange an RTS/CTS handshake with the receiver's library
        (rendezvous), as era MPI implementations over TCP did.

        The send is a callback state machine (:class:`_Send`), not a
        process: it starts with one URGENT entry, where a process start
        runs, and an error raised inside it (say a
        :class:`~repro.errors.ProtocolError` from TCP) fails the
        completion event, so it is thrown into whoever waits on it.
        """
        if not 0 <= dst < self.size:
            raise ApplicationError(f"bad destination rank {dst}")
        if dst == self.rank:
            return self._self_send(nbytes, payload, tag)
        return _Send(self, dst, nbytes, payload, tag).done

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

    def _self_send(self, nbytes: int, payload: Any, tag: int) -> Event:
        """MPI self-send: one memcpy, no wire; returns its completion
        event, which fires once the copy is delivered."""
        copy_time = self.node.hierarchy.touch_time(
            2 * nbytes, pattern=AccessPattern.STREAM
        )
        done = Event(self.sim, f"selfsend.{self.rank}")

        def copied():
            try:
                mailbox = self.node.require_tcp().mailbox
            except RuntimeError as exc:
                done.fail(exc)
                return
            mailbox.deliver(
                MessageView(
                    src=MacAddress(self.rank), tag=tag, nbytes=nbytes, payload=payload
                )
            )
            done.succeed()

        self.sim.call_urgent(self.node.cpu.busy_then, copy_time, copied)
        return done

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


class _Send:
    """One MPI send to another rank, stepped by callbacks.

    The steps a send process took, each where the process resumed: the
    URGENT start entry, the library's CPU cost (:meth:`CPU.busy_then`),
    the RTS and the wait for its CTS (rendezvous only), the TCP send,
    and ``done`` when TCP reports the message ACKed.  A node without
    TCP, a message TCP refuses, or a failed TCP send fails ``done``.
    """

    __slots__ = ("ctx", "dst", "nbytes", "payload", "tag", "done")

    def __init__(self, ctx: RankContext, dst: int, nbytes: int, payload: Any, tag: int):
        self.ctx = ctx
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        self.tag = tag
        self.done = Event(ctx.sim, ctx._send_name)
        ctx.sim.call_urgent(self._start)

    def _start(self) -> None:
        ctx = self.ctx
        try:
            ctx.node.require_tcp()
        except RuntimeError as exc:
            self.done.fail(exc)
            return
        ctx.node.cpu.busy_then(ctx.mpi_config.send_cost, self._post)

    def _post(self) -> None:
        ctx = self.ctx
        cfg = ctx.mpi_config
        if self.nbytes > cfg.eager_limit:
            # Rendezvous: RTS carries a token; wait for the CTS echo.
            tcp = ctx.node.tcp
            ctx._rdv_tokens += 1
            token = (ctx.rank << 16) | (ctx._rdv_tokens & 0xFFFF)
            dst = MacAddress(self.dst)
            tcp.send(dst, cfg.control_bytes, payload=token, tag=_RTS_TAG)
            cts = tcp.recv(src=dst, tag=_CTS_TAG_BASE + token)
            if cts.callbacks is not None:
                cts.callbacks.append(self._send_data)
                return
        self._send_data()

    def _send_data(self, _cts: Optional[Event] = None) -> None:
        payload, self.payload = self.payload, None
        try:
            acked = self.ctx.node.tcp.send(
                MacAddress(self.dst), self.nbytes, payload=payload, tag=self.tag
            )
        except ProtocolError as exc:
            self.done.fail(exc)
            return
        acked.callbacks.append(self._acked)

    def _acked(self, acked: Event) -> None:
        if acked._ok:
            self.done.succeed()
        else:
            self.done.fail(acked._value)


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
