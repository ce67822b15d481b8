"""Bandwidth-shared bus models.

Two arbitration disciplines are provided:

``FCFSBus``
    Transfers are serialized: one transfer owns the full bandwidth until
    it completes.  A good model for a PCI bus doing long DMA bursts
    (which is how the prototype ACEII card behaves — one 132 MB/s bus
    carries *all* card traffic, Section 5 of the paper).

``FairShareBus``
    Processor-sharing: ``k`` concurrent transfers each progress at
    ``bandwidth / k`` (subject to per-transfer rate caps).  A good model
    for interleaved DMA with round-robin arbitration, and for the
    "separate path to host memory" mode of the ideal INIC.

Both support a fixed per-transaction arbitration latency and expose
utilization statistics.  The fair-share bus recomputes completion times
whenever the set of active transfers changes — an event-driven
implementation of generalized processor sharing.

``transfer()`` returns the completion :class:`~repro.sim.engine.Event`,
which is directly awaitable from a coroutine process (``await
bus.transfer(n)``) and yieldable from a generator one — the same single
schedule entry either way.  ``transfer_proc`` remains the ``yield
from`` helper for generator bodies that want the byte count returned
(coroutines get it as the event's value).
"""

from __future__ import annotations

from typing import Optional

from ..errors import BusError
from .engine import Event, Simulator

__all__ = ["FCFSBus", "FairShareBus", "BusStats"]

#: completion slack, in bytes.  Transfers are byte-sized (>= 1), so any
#: residue below this is floating-point noise; treating it as done keeps
#: tick intervals from shrinking below the clock's representable step.
_REMAINING_EPS = 1e-6


class BusStats:
    """Byte/transfer counters shared by both bus models."""

    def __init__(self) -> None:
        self.bytes_transferred: float = 0.0
        self.transfer_count: int = 0
        self.busy_time: float = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which the bus was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class FCFSBus:
    """Serialized bus: one transfer at a time at full bandwidth."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        arbitration_latency: float = 0.0,
        name: str = "bus",
    ):
        if bandwidth <= 0:
            raise BusError(f"bus bandwidth must be > 0, got {bandwidth}")
        if arbitration_latency < 0:
            raise BusError("negative arbitration latency")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.arbitration_latency = float(arbitration_latency)
        self.stats = BusStats()
        self._busy_until: float = 0.0
        self._xfer_name = f"{name}.xfer"

    @property
    def busy(self) -> bool:
        return self.sim.now < self._busy_until

    def busy_snapshot(self) -> float:
        """Busy seconds so far, capped at the current sim time.

        ``stats.busy_time`` is charged in full when a transfer is
        issued, so mid-transfer it can run ahead of the clock; snapshot
        reads clamp it to what has actually elapsed.
        """
        return min(self.stats.busy_time, self.sim.now)

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this bus's instruments under ``prefix``."""
        registry.busy(f"{prefix}.busy_time", self.busy_snapshot)
        registry.counter(
            f"{prefix}.bytes", lambda s=self.stats: s.bytes_transferred, unit="B"
        )
        registry.counter(f"{prefix}.transfers", lambda s=self.stats: s.transfer_count)

    def transfer(self, nbytes: float) -> Event:
        """Move ``nbytes`` across the bus; event fires on completion.

        Queueing is implicit: a transfer issued while the bus is busy
        starts when the bus frees up (FIFO order by issue time).  The
        returned event is awaitable (``await bus.transfer(n)``) as well
        as yieldable; its value is the byte count.
        """
        if nbytes <= 0:
            raise BusError(f"bus transfer of {nbytes} bytes on {self.name!r}")
        now = self.sim.now
        start = now if now > self._busy_until else self._busy_until
        duration = self.arbitration_latency + nbytes / self.bandwidth
        finish = start + duration
        self._busy_until = finish
        self.stats.bytes_transferred += nbytes
        self.stats.transfer_count += 1
        self.stats.busy_time += duration
        # One schedule entry: the completion event itself (no trampoline).
        done = self.sim.event(name=self._xfer_name)
        self.sim.succeed_later(done, finish - now, nbytes)
        return done

    def transfer_proc(self, nbytes: float):
        """Generator form: ``yield from bus.transfer_proc(n)``."""
        yield self.transfer(nbytes)
        return nbytes

    def reserve(self, nbytes: float, transactions: int = 1) -> tuple[float, float]:
        """Claim bus time for ``transactions`` back-to-back transfers.

        Event-free companion to :meth:`transfer` for bulk admission: the
        busy clock advances exactly as if ``transactions`` transfers
        totalling ``nbytes`` had been issued one after another (each
        paying the arbitration latency), but no completion event is
        allocated — the caller schedules its own wakeup.  Returns
        ``(start, finish)`` of the reserved window.
        """
        if nbytes <= 0:
            raise BusError(f"bus reserve of {nbytes} bytes on {self.name!r}")
        if transactions < 1:
            raise BusError(f"bus reserve of {transactions} transactions")
        now = self.sim.now
        start = now if now > self._busy_until else self._busy_until
        duration = transactions * self.arbitration_latency + nbytes / self.bandwidth
        finish = start + duration
        self._busy_until = finish
        self.stats.bytes_transferred += nbytes
        self.stats.transfer_count += transactions
        self.stats.busy_time += duration
        return start, finish

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FCFSBus {self.name!r} {self.bandwidth:g} B/s>"


class _Flow:
    """One active transfer on a :class:`FairShareBus`."""

    __slots__ = ("remaining", "rate_cap", "done", "nbytes")

    def __init__(self, nbytes: float, rate_cap: float, done: Event):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.rate_cap = rate_cap
        self.done = done


class FairShareBus:
    """Processor-sharing bus: concurrent transfers split the bandwidth.

    The implementation advances all active flows lazily: whenever a flow
    is added or completes, every flow's ``remaining`` is updated for the
    elapsed interval at the old rate, rates are recomputed, and the next
    completion is rescheduled.  Water-filling honours per-flow caps:
    capped flows take their cap and the surplus is split among the rest.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        arbitration_latency: float = 0.0,
        name: str = "bus",
    ):
        if bandwidth <= 0:
            raise BusError(f"bus bandwidth must be > 0, got {bandwidth}")
        if arbitration_latency < 0:
            raise BusError("negative arbitration latency")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.arbitration_latency = float(arbitration_latency)
        self.stats = BusStats()
        self._flows: list[_Flow] = []
        self._last_update: float = 0.0
        #: pending completion tick (``call_after`` handle), if any
        self._tick: Optional[list] = None
        self._busy_since: Optional[float] = None
        self._xfer_name = f"{name}.xfer"

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def current_rate(self, flow_count: Optional[int] = None) -> float:
        """Uncapped per-flow rate with ``flow_count`` concurrent flows."""
        n = len(self._flows) if flow_count is None else flow_count
        return self.bandwidth / max(1, n)

    def transfer(self, nbytes: float, rate_cap: float = float("inf")) -> Event:
        """Start a transfer of ``nbytes`` (optionally capped at ``rate_cap``)."""
        if nbytes <= 0:
            raise BusError(f"bus transfer of {nbytes} bytes on {self.name!r}")
        if rate_cap <= 0:
            raise BusError(f"non-positive rate cap {rate_cap}")
        done = self.sim.event(name=self._xfer_name)
        flow = _Flow(nbytes, rate_cap, done)
        if self.arbitration_latency > 0:
            self.sim.call_after(self.arbitration_latency, self._admit, flow)
        else:
            self._admit(flow)
        return done

    def transfer_proc(self, nbytes: float, rate_cap: float = float("inf")):
        """Generator form: ``yield from bus.transfer_proc(n)``."""
        yield self.transfer(nbytes, rate_cap)
        return nbytes

    def busy_snapshot(self) -> float:
        """Busy seconds so far, including the still-open busy period.

        ``stats.busy_time`` is only folded in when the last flow drains;
        a snapshot taken while flows are active must add the in-flight
        interval.
        """
        busy = self.stats.busy_time
        if self._busy_since is not None:
            busy += self.sim.now - self._busy_since
        return busy

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this bus's instruments under ``prefix``."""
        registry.busy(f"{prefix}.busy_time", self.busy_snapshot)
        registry.counter(
            f"{prefix}.bytes", lambda s=self.stats: s.bytes_transferred, unit="B"
        )
        registry.counter(f"{prefix}.transfers", lambda s=self.stats: s.transfer_count)

    # -- internals --------------------------------------------------------------
    def _admit(self, flow: _Flow) -> None:
        self._advance()
        if not self._flows:
            self._busy_since = self.sim.now
        self._flows.append(flow)
        self.stats.transfer_count += 1
        self._reschedule()

    def _rates(self) -> list[float]:
        """Water-filling allocation honouring per-flow caps."""
        n = len(self._flows)
        if n == 0:
            return []
        if n == 1:
            # Degenerate water-filling (the common case on NIC DMA
            # paths): share == full bandwidth, cap applies directly.
            cap = self._flows[0].rate_cap
            return [cap if cap <= self.bandwidth else self.bandwidth]
        rates = [0.0] * n
        budget = self.bandwidth
        todo = list(range(n))
        while todo:
            share = budget / len(todo)
            capped = [i for i in todo if self._flows[i].rate_cap <= share]
            if not capped:
                for i in todo:
                    rates[i] = share
                break
            for i in capped:
                rates[i] = self._flows[i].rate_cap
                budget -= self._flows[i].rate_cap
                todo.remove(i)
        return rates

    def _advance(self) -> None:
        """Account progress since the last rate change."""
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._flows:
            return
        if len(self._flows) == 1:
            flow = self._flows[0]
            cap = flow.rate_cap
            rate = cap if cap <= self.bandwidth else self.bandwidth
            moved = rate * dt
            if moved > flow.remaining:
                moved = flow.remaining
            flow.remaining -= moved
            self.stats.bytes_transferred += moved
            return
        rates = self._rates()
        for flow, rate in zip(self._flows, rates):
            moved = min(flow.remaining, rate * dt)
            flow.remaining -= moved
            self.stats.bytes_transferred += moved

    def _reschedule(self) -> None:
        """Complete finished flows and schedule the next completion.

        A pending completion tick made stale by a membership change is
        *cancelled* in O(1) via its ``call_after`` handle — the
        scheduler tombstones it and drops it when it reaches the heap root.
        """
        tick = self._tick
        if tick is not None:
            self._tick = None
            self.sim.cancel_callback(tick)

        flows = self._flows
        finished = [f for f in flows if f.remaining <= _REMAINING_EPS]
        if finished:
            flows = self._flows = [f for f in flows if f.remaining > _REMAINING_EPS]
            for f in finished:
                f.done.succeed(f.nbytes)

        if not flows:
            if self._busy_since is not None:
                self.stats.busy_time += self.sim.now - self._busy_since
                self._busy_since = None
            return

        if len(flows) == 1:
            # Single flow: it is the next (and only) completion.
            flow = flows[0]
            cap = flow.rate_cap
            rate = cap if cap <= self.bandwidth else self.bandwidth
            self._tick = self.sim.call_after(
                flow.remaining / rate, self._on_tick, flows[:]
            )
            return

        rates = self._rates()
        next_dt = min(
            f.remaining / r for f, r in zip(flows, rates) if r > 0
        )

        # The flow(s) chosen to finish at next_dt must actually finish then,
        # independent of rounding in the interim advance.
        finishing = [
            f for f, r in zip(flows, rates) if r > 0 and f.remaining / r == next_dt
        ]
        self._tick = self.sim.call_after(next_dt, self._on_tick, finishing)

    def _on_tick(self, finishing: list[_Flow]) -> None:
        self._tick = None
        self._advance()
        for f in finishing:
            f.remaining = 0.0
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FairShareBus {self.name!r} {self.bandwidth:g} B/s "
            f"{len(self._flows)} flows>"
        )
