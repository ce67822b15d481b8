"""Simplified packet-level TCP.

This is the paper's baseline transport (FFTW and the parallel sort run
over MPI-on-TCP in Section 6), modelled with exactly the pathologies
Section 4.1 blames for the Gigabit NIC's poor scaling:

* **slow start** — each flow ramps its congestion window from
  ``init_cwnd`` segments, so short messages (small partitions at high P)
  never reach line rate; after an idle period the window restarts;
* **ACK clocking through interrupt mitigation** — ACKs are real frames
  that traverse the switch and the receiver's coalescing NIC, so the
  mitigation delay is added to every window-growth round trip ("it
  interacts poorly with TCP slow-start for short messages");
* **per-segment host CPU cost** — send and receive path processing steals
  CPU from the application (the INIC eliminates this);
* **go-back-N loss recovery** — switch buffer overruns cost a
  retransmission timeout and a window collapse.

Segments may be batched ``quantum`` physical frames per simulation event
(CHUNK fidelity); window arithmetic stays segment-accurate because frame
boundaries are deterministic (chunks are laid out from each message's
start), so retransmissions reproduce identical frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ProtocolError
from ..hw.cpu import CPU
from ..net.addresses import MacAddress
from ..net.batching import adaptive_quantum, choose_quantum
from ..net.nic import StandardNIC
from ..net.packet import ETHERNET_MTU, IP_TCP_HEADERS, Frame, wire_bytes
from ..sim.engine import Event, Simulator
from .base import Mailbox, MessageView, next_message_id

__all__ = ["TCPConfig", "TCPStack", "TCPStats"]

#: static cap on segments per chunk: quantum batching adds
#: store-and-forward latency per pipeline stage, which inflates the RTT
#: that cwnd must cover; 16 frames (~23 KiB) keeps that artifact below
#: the real window dynamics
QUANTUM_CAP = 16


@dataclass(frozen=True)
class TCPConfig:
    """Tunables for the TCP model (2001-era Linux-ish defaults)."""

    mss: int = ETHERNET_MTU - IP_TCP_HEADERS  # 1460 payload bytes/segment
    init_cwnd: int = 2  # segments (RFC 2581)
    init_ssthresh: int = 64  # segments
    rwnd: int = 128 * 1024  # receiver window, bytes (caps the flight)
    rto: float = 0.2  # retransmission timeout, seconds
    idle_restart: bool = True  # RFC 2861: collapse cwnd after idle
    per_message_cost: float = 30e-6  # syscall + stack entry per send()
    send_cost_per_segment: float = 4.0e-6  # host TX path CPU (copy+checksum)
    recv_cost_per_segment: float = 4.0e-6  # host RX path CPU (above NIC irq)
    ack_cost: float = 1.0e-6  # generating/processing an ACK
    #: per-frame fidelity: every segment is its own event (quantum 1 in
    #: both batching rules); the reference the fidelity tests compare
    #: batched runs against
    per_frame: bool = False

    def __post_init__(self) -> None:
        if self.mss < 1 or self.init_cwnd < 1 or self.init_ssthresh < 1:
            raise ProtocolError("invalid TCP window configuration")
        if self.rto <= 0 or self.rwnd < self.mss:
            raise ProtocolError("invalid TCP timer/window configuration")


class TCPStats:
    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.data_frames_sent = 0
        self.acks_sent = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.retransmitted_frames = 0
        self.bytes_sent = 0.0
        self.bytes_delivered = 0.0


class _OutMsg:
    __slots__ = ("start", "nbytes", "tag", "payload", "done", "msg_id", "quantum")

    def __init__(self, start, nbytes, tag, payload, done, msg_id, quantum):
        self.start = start
        self.nbytes = nbytes
        self.tag = tag
        self.payload = payload
        self.done = done
        self.msg_id = msg_id
        self.quantum = quantum

    @property
    def end(self) -> int:
        return self.start + self.nbytes


class _SendConn:
    """Per-destination sender state."""

    def __init__(self, stack: "TCPStack", remote: MacAddress):
        self.stack = stack
        self.remote = remote
        cfg = stack.config
        self.snd_una = 0  # oldest unacknowledged byte
        self.snd_nxt = 0  # next byte to send
        self.stream_end = 0  # end of enqueued data
        self.cwnd = float(cfg.init_cwnd)  # segments
        self.ssthresh = float(cfg.init_ssthresh)
        self._dup_acks = 0
        self._recover = 0  # NewReno-style: no second fast retransmit
        # until the flight outstanding at loss time is acknowledged
        # unacknowledged messages, oldest first.  It holds a message or
        # two at a time, and an all-to-all opens p-1 connections per
        # rank, so a plain list beats a deque's ~760 B of fixed blocks.
        self.window_msgs: list[_OutMsg] = []
        self.last_progress = stack.sim.now
        self.last_activity = stack.sim.now
        self._send_wakeup: Optional[Event] = None
        self._window_wakeup: Optional[Event] = None
        #: the armed retransmission deadline (``call_after`` handle)
        self._rto: Optional[list] = None
        stack.sim.process(self._sender(), name=f"tcp.snd.{remote}")

    # -- window helpers ------------------------------------------------------------
    @property
    def flight(self) -> int:
        return self.snd_nxt - self.snd_una

    def effective_window(self) -> int:
        cfg = self.stack.config
        return min(int(self.cwnd) * cfg.mss, cfg.rwnd)

    def _wake(self, attr: str) -> None:
        ev: Optional[Event] = getattr(self, attr)
        if ev is not None:
            setattr(self, attr, None)
            ev.succeed(None)

    # -- enqueue -------------------------------------------------------------------
    def enqueue(self, nbytes: int, tag: int, payload: Any) -> Event:
        sim = self.stack.sim
        cfg = self.stack.config
        if cfg.idle_restart and self.flight == 0:
            if sim.now - self.last_activity > cfg.rto:
                self.cwnd = float(cfg.init_cwnd)
        done = sim.event(name="tcp.msg.done")
        segments = -(-nbytes // cfg.mss)
        quantum = choose_quantum(segments, 1 if cfg.per_frame else QUANTUM_CAP)
        msg = _OutMsg(
            self.stream_end, nbytes, tag, payload, done, next_message_id(), quantum
        )
        self.stream_end += nbytes
        self.window_msgs.append(msg)
        self.stack.stats.messages_sent += 1
        self._wake("_send_wakeup")
        return done

    # -- frame construction -----------------------------------------------------------
    def _msg_at(self, seq: int) -> _OutMsg:
        for m in self.window_msgs:
            if m.start <= seq < m.end:
                return m
        raise ProtocolError(f"no message covering seq {seq}")

    def _build_frame(self, seq: int, size: int) -> Frame:
        cfg = self.stack.config
        msg = self._msg_at(seq)
        nframes = -(-size // cfg.mss)
        last = seq + size == msg.end
        return Frame(
            src=self.stack.nic.address,
            dst=self.remote,
            payload_bytes=size,
            headers=IP_TCP_HEADERS,
            frame_count=nframes,
            kind="tcp",
            seq=seq,
            payload=msg.payload if last else None,
            meta={
                "msg": msg.msg_id,
                "tag": msg.tag,
                "total": msg.nbytes,
                "last": last,
            },
        )

    # -- sender process ----------------------------------------------------------------
    def _sender(self):
        sim = self.stack.sim
        cpu = self.stack.cpu
        cfg = self.stack.config
        while True:
            if self.snd_nxt >= self.stream_end:
                # Idle until the next send(): keep no delivered payload.
                msg = frame = None
                ev = sim.event(name="tcp.snd.wakeup")
                self._send_wakeup = ev
                yield ev
                continue
            msg = self._msg_at(self.snd_nxt)
            if self.snd_nxt == msg.start and cpu is not None:
                # Per-send() syscall/stack-entry cost at message start.
                yield from cpu.busy(cfg.per_message_cost)
            # Send whatever the window currently allows (at least one
            # segment), up to a quantum — partial chunks keep the pipe
            # ACK-clocked instead of degenerating to stop-and-wait.
            while self.effective_window() - self.flight < cfg.mss:
                ev = sim.event(name="tcp.snd.window")
                self._window_wakeup = ev
                yield ev
            window_free = self.effective_window() - self.flight
            quantum = msg.quantum
            if not cfg.per_frame:
                # Grow the chunk to the largest segment train the timing
                # tolerance allows, but keep >= 4 chunks per window so the
                # flight stays ACK-clocked (never stop-and-wait).
                bw = self.stack.nic.wire_bandwidth
                remaining = -(-(msg.end - self.snd_nxt) // cfg.mss)
                q_tol = adaptive_quantum(
                    remaining, self.stack._segment_wire_bytes / bw if bw > 0 else 0.0
                )
                q_win = max(1, self.effective_window() // (4 * cfg.mss))
                quantum = max(quantum, min(q_tol, q_win))
            chunk = min(
                quantum * cfg.mss, msg.end - self.snd_nxt, window_free
            )
            frame = self._build_frame(self.snd_nxt, chunk)
            if cpu is not None:
                yield from cpu.busy(cfg.send_cost_per_segment * frame.frame_count)
            was_idle = self.flight == 0
            self.snd_nxt += frame.payload_bytes
            self.last_activity = sim.now
            if was_idle:
                self.last_progress = sim.now
                if self._rto is None:
                    self._check_rto()
            yield from self.stack.nic.transmit(frame)
            self.stack.stats.data_frames_sent += frame.frame_count
            self.stack.stats.bytes_sent += frame.payload_bytes

    # -- ACK handling ---------------------------------------------------------------------
    def on_ack(self, ack: int) -> None:
        cfg = self.stack.config
        if ack <= self.snd_una:
            # Duplicate ACK: the receiver saw a gap.  After three, do a
            # fast retransmit (go back to snd_una, halve the window).
            self._dup_acks += 1
            if self._dup_acks >= 3 and self.flight > 0 and self.snd_una >= self._recover:
                self._recover = self.snd_nxt
                self._dup_acks = 0
                self.stack.stats.fast_retransmits += 1
                flight_segments = max(self.flight / cfg.mss, 2.0)
                self.ssthresh = max(flight_segments / 2.0, 2.0)
                self.cwnd = self.ssthresh
                lost = self.snd_nxt - self.snd_una
                self.snd_nxt = self.snd_una
                self.stack.stats.retransmitted_frames += -(-lost // cfg.mss)
                self.last_progress = self.stack.sim.now
                self._wake("_window_wakeup")
                self._wake("_send_wakeup")
            return
        self._dup_acks = 0
        acked = ack - self.snd_una
        self.snd_una = ack
        if self.snd_nxt < self.snd_una:
            # A retransmission raced a late cumulative ACK: fast-forward.
            self.snd_nxt = self.snd_una
        self.last_progress = self.stack.sim.now
        self.last_activity = self.stack.sim.now
        # Window growth, per acked segment.
        acked_segments = acked / cfg.mss
        if self.cwnd < self.ssthresh:
            self.cwnd += acked_segments  # slow start
        else:
            self.cwnd += acked_segments / max(self.cwnd, 1.0)  # AIMD
        # Complete fully acknowledged messages.
        while self.window_msgs and self.window_msgs[0].end <= self.snd_una:
            msg = self.window_msgs.pop(0)
            msg.done.succeed(None)
        self._wake("_window_wakeup")

    # -- retransmission timer ----------------------------------------------------------------
    def _check_rto(self) -> None:
        """Arm the timer for the deadline, or time out if it has passed.

        Runs when the connection goes from idle to busy with no timer
        armed, and whenever an armed deadline comes due.  An idle
        connection leaves the timer disarmed.
        """
        if self.flight == 0:
            return
        sim = self.stack.sim
        cfg = self.stack.config
        deadline = self.last_progress + cfg.rto
        if sim.now < deadline:
            self._rto = sim.call_after(deadline - sim.now, self._on_rto)
            return
        # Timeout: go-back-N and collapse the window.
        self.stack.stats.timeouts += 1
        flight_segments = max(self.flight / cfg.mss, 1.0)
        self.ssthresh = max(flight_segments / 2.0, 2.0)
        self.cwnd = float(cfg.init_cwnd)
        lost = self.snd_nxt - self.snd_una
        self.snd_nxt = self.snd_una
        self.stack.stats.retransmitted_frames += -(-lost // cfg.mss)
        self.last_progress = sim.now
        self._wake("_window_wakeup")
        self._wake("_send_wakeup")

    def _on_rto(self) -> None:
        self._rto = None
        self._check_rto()


class _RecvState:
    """Per-source receiver state (go-back-N: in-order only)."""

    __slots__ = ("rcv_nxt", "msg_progress")

    def __init__(self) -> None:
        self.rcv_nxt = 0
        #: msg_id -> bytes received so far
        self.msg_progress: dict[int, int] = {}


class TCPStack:
    """Host TCP bound to one NIC + CPU."""

    def __init__(
        self,
        sim: Simulator,
        nic: StandardNIC,
        cpu: Optional[CPU] = None,
        config: TCPConfig = TCPConfig(),
        name: str = "tcp",
    ):
        self.sim = sim
        self.nic = nic
        self.cpu = cpu
        self.config = config
        self.name = name
        self.stats = TCPStats()
        #: on-wire bytes of one full segment (the adaptive quantum's unit)
        self._segment_wire_bytes = wire_bytes(config.mss, IP_TCP_HEADERS)
        self.mailbox = Mailbox(sim, name=f"{name}.mbox")
        self._send_conns: dict[int, _SendConn] = {}
        self._recv_states: dict[int, _RecvState] = {}
        nic.bind_receiver(self._on_frame)

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this stack's instruments under ``prefix``."""
        stats = self.stats
        registry.counter(f"{prefix}.messages_sent", lambda: stats.messages_sent)
        registry.counter(
            f"{prefix}.messages_delivered", lambda: stats.messages_delivered
        )
        registry.counter(f"{prefix}.data_frames_sent", lambda: stats.data_frames_sent)
        registry.counter(f"{prefix}.acks_sent", lambda: stats.acks_sent)
        registry.counter(f"{prefix}.timeouts", lambda: stats.timeouts)
        registry.counter(
            f"{prefix}.fast_retransmits", lambda: stats.fast_retransmits
        )
        registry.counter(
            f"{prefix}.retransmitted_frames", lambda: stats.retransmitted_frames
        )
        registry.counter(f"{prefix}.bytes_sent", lambda: stats.bytes_sent, unit="B")
        registry.counter(
            f"{prefix}.bytes_delivered", lambda: stats.bytes_delivered, unit="B"
        )

    # -- API ---------------------------------------------------------------------
    def send(
        self, dst: MacAddress, nbytes: int, payload: Any = None, tag: int = 0
    ) -> Event:
        """Queue a message; the event fires when it is fully ACKed."""
        if nbytes < 1:
            raise ProtocolError(f"cannot send {nbytes} bytes")
        if dst == self.nic.address:
            raise ProtocolError("TCP loopback not modelled; use local copy")
        conn = self._send_conns.get(dst.value)
        if conn is None:
            conn = _SendConn(self, dst)
            self._send_conns[dst.value] = conn
        return conn.enqueue(nbytes, tag, payload)

    def recv(
        self, src: Optional[MacAddress] = None, tag: Optional[int] = None
    ) -> Event:
        """Event yielding the next matching :class:`MessageView`."""
        return self.mailbox.recv(src, tag)

    # -- frame dispatch ----------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        if frame.kind == "tcp":
            self._on_data(frame)
        elif frame.kind == "tcp-ack":
            self._on_ack_frame(frame)
        else:
            raise ProtocolError(f"TCP stack got foreign frame kind {frame.kind!r}")

    def _on_data(self, frame: Frame) -> None:
        cfg = self.config
        state = self._recv_states.get(frame.src.value)
        if state is None:
            state = self._recv_states[frame.src.value] = _RecvState()
        if self.cpu is not None:
            self.cpu.steal(cfg.recv_cost_per_segment * frame.frame_count)
        if frame.seq == state.rcv_nxt:
            state.rcv_nxt += frame.payload_bytes
            msg_id = frame.meta["msg"]
            got = state.msg_progress.get(msg_id, 0) + frame.payload_bytes
            if frame.meta["last"]:
                if got != frame.meta["total"]:
                    raise ProtocolError(
                        f"message {msg_id} reassembly mismatch: {got} != "
                        f"{frame.meta['total']}"
                    )
                state.msg_progress.pop(msg_id, None)
                self.stats.messages_delivered += 1
                self.stats.bytes_delivered += frame.meta["total"]
                self.mailbox.deliver(
                    MessageView(
                        src=frame.src,
                        tag=frame.meta["tag"],
                        nbytes=frame.meta["total"],
                        payload=frame.payload,
                    )
                )
            else:
                state.msg_progress[msg_id] = got
        # else: out-of-order after a loss -> discarded, cumulative ACK below
        self._send_ack(frame.src, state.rcv_nxt)

    def _send_ack(self, dst: MacAddress, ack: int) -> None:
        if self.cpu is not None:
            self.cpu.steal(self.config.ack_cost)
        self.stats.acks_sent += 1
        self.nic.transmit_nowait(
            Frame(
                src=self.nic.address,
                dst=dst,
                payload_bytes=0,
                headers=IP_TCP_HEADERS,
                kind="tcp-ack",
                meta={"ack": ack},
            )
        )

    def _on_ack_frame(self, frame: Frame) -> None:
        if self.cpu is not None:
            self.cpu.steal(self.config.ack_cost)
        conn = self._send_conns.get(frame.src.value)
        if conn is not None:
            conn.on_ack(frame.meta["ack"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TCPStack {self.name!r} on {self.nic.name!r}>"
