"""Host CPU model.

The CPU is a single-server resource (the paper's nodes are 1-GHz
uniprocessor Athlons) whose compute tasks are expressed in *seconds of
work*, produced by the application cost models
(:mod:`repro.models.params`).  Two effects the paper depends on are
modelled:

* **Interrupt theft** — interrupt handlers (NIC RX/TX) steal CPU time
  from whatever computation is running.  Delivered interrupts call
  :meth:`CPU.steal`; the backlog inflates the running (or next) task.
  This is the mechanism by which per-packet interrupt load slows the
  Gigabit Ethernet baseline, and its absence is the INIC's headline win
  ("the virtual elimination of interrupts from the communication path",
  Section 4.1).

* **Cache-fit compute rates** — helpers cost a task by bytes touched and
  working-set size through the :class:`~repro.hw.memory.MemoryHierarchy`,
  so partition-fits-in-L2 kinks appear in compute curves.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..errors import HardwareError
from ..sim.engine import NORMAL, Event, Simulator
from .memory import AccessPattern, MemoryHierarchy

__all__ = ["CPU"]


class CPU:
    """A single host processor with a memory hierarchy."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: MemoryHierarchy,
        clock_hz: float = 1e9,
        flops_per_cycle: float = 1.0,
        interrupt_cost: float = 10e-6,
        name: str = "cpu",
    ):
        if clock_hz <= 0:
            raise HardwareError("clock must be > 0")
        if flops_per_cycle <= 0:
            raise HardwareError("flops_per_cycle must be > 0")
        if interrupt_cost < 0:
            raise HardwareError("negative interrupt cost")
        self.sim = sim
        self.hierarchy = hierarchy
        self.clock_hz = float(clock_hz)
        self.flops_per_cycle = float(flops_per_cycle)
        self.interrupt_cost = float(interrupt_cost)
        self.name = name
        #: the core is held by a task (granted, running or handed over)
        self._held = False
        #: tasks queued for the core, FIFO: each waits on its grant event
        self._waiters: deque[Event] = deque()
        self._grant_name = f"{name}.grant"
        self._steal_backlog = 0.0
        # -- the fold window of an inline grant (see ``busy``) ---------------
        #: the task's first sleep while its window is open, else None
        self._first: Optional[Event] = None
        self._first_at = 0.0
        self._first_seq = 0
        self._first_seconds = 0.0
        self._first_backlog = 0.0
        # -- statistics ----------------------------------------------------
        self.busy_time = 0.0
        self.interrupt_time = 0.0
        self.tasks_run = 0

    def register_telemetry(self, registry, prefix: str) -> None:
        """Register this CPU's instruments under ``prefix``."""
        registry.busy(f"{prefix}.busy_time", lambda: self.busy_time)
        registry.busy(f"{prefix}.interrupt_time", lambda: self.interrupt_time)
        registry.counter(f"{prefix}.tasks_run", lambda: self.tasks_run)

    # -- interrupt theft ---------------------------------------------------------
    def steal(self, seconds: float) -> None:
        """Charge ``seconds`` of handler time against the CPU.

        The time is added to a backlog consumed by the running or next
        compute task, inflating it.
        """
        if seconds < 0:
            raise HardwareError("negative steal")
        self.interrupt_time += seconds
        first = self._first
        if first is not None:
            sim = self.sim
            firing = sim._firing
            if sim._now == self._first_at and (
                (firing[1], firing[2]) < (NORMAL, self._first_seq)
            ):
                # Charged before the grant entry would have fired: the
                # task reads it at its start, so it joins the first sleep.
                self._first_backlog += seconds
                sim.cancel(first)
                sim.succeed_later(first, self._first_seconds + self._first_backlog)
                return
            self._first = None
        self._steal_backlog += seconds

    def charge_interrupt(self, count: int = 1) -> None:
        """Convenience: steal ``count`` interrupt-handler costs."""
        self.steal(count * self.interrupt_cost)

    # -- computing -----------------------------------------------------------------
    def busy(self, seconds: float):
        """Generator: occupy the core for ``seconds`` of work.

        Usage inside a process::

            yield from node.cpu.busy(0.010)

        The actual elapsed time is ``seconds`` plus any interrupt time
        stolen while the task held the core.

        A free core is taken inline, with no grant entry.  A grant entry
        would fire at this time with the next sequence number, and the
        task would read the steal backlog there; so the first sleep
        takes that sequence number, and a steal charged before that
        point in the same-time order (an URGENT entry, or a NORMAL one
        queued before this call) joins the first sleep: it is withdrawn
        and pushed again for ``start + (seconds + backlog)``, the float
        a granted task computes.  Any later steal goes to the backlog,
        which the task drains when a sleep ends.  A busy core queues the
        task; the release hands the core over with one same-time grant
        entry.

        :meth:`busy_then` drives the same steps from callbacks.
        """
        if seconds < 0:
            raise HardwareError(f"negative compute time {seconds!r}")
        grant = self._take()
        if grant is not None:
            yield grant
        start = self.sim._now
        sleep = self._first_sleep(seconds, grant is None)
        try:
            while sleep is not None:
                yield sleep
                sleep = self._next_sleep()
            self._account(start)
        finally:
            self._release()

    def busy_then(self, seconds: float, then: Callable[[], None]) -> None:
        """Occupy the core for ``seconds`` of work, then call ``then()``.

        The callback form of :meth:`busy`, for state machines: the same
        steps push the same entries (grant, sleeps, the fold's
        withdraw-and-repush, the grant on release), and ``then`` runs
        where the generator's caller would resume, after the release.
        """
        if seconds < 0:
            raise HardwareError(f"negative compute time {seconds!r}")
        _Task(self, seconds, then)

    # -- the steps both drivers take -----------------------------------------------
    def _take(self) -> Optional[Event]:
        """Request the core: ``None`` if it was free (the caller now holds
        it), else the grant event that hands it over, FIFO."""
        if self._held:
            grant = Event(self.sim, self._grant_name)
            self._waiters.append(grant)
            return grant
        self._held = True
        return None

    def _first_sleep(self, seconds: float, inline: bool) -> Optional[Event]:
        """The task starts on the held core: its first sleep, or ``None``
        for a granted task with no work."""
        sim = self.sim
        backlog = self._consume_backlog()
        remaining = seconds + backlog
        if not inline:
            return sim.sleep(remaining) if remaining > 0 else None
        # The grant's place in the order: a zero-length task waits there
        # (a steal in between gives it work); any other task's first
        # sleep takes it and opens the fold window.
        first = sim.sleep(remaining)
        if remaining > 0:
            self._first = first
            self._first_at = sim._now
            self._first_seq = first._entry[2]
            self._first_seconds = seconds
            self._first_backlog = backlog
        return first

    def _next_sleep(self) -> Optional[Event]:
        """A sleep ended: the sleep for what interrupts stole while the
        task "ran", or ``None`` when the task is done."""
        remaining = self._consume_backlog()
        return self.sim.sleep(remaining) if remaining > 0 else None

    def _account(self, start: float) -> None:
        self.busy_time += self.sim._now - start
        self.tasks_run += 1

    def _release(self) -> None:
        """Close the holder's fold window and hand the core on."""
        self._first = None
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._held = False

    def _consume_backlog(self) -> float:
        stolen, self._steal_backlog = self._steal_backlog, 0.0
        return stolen

    # -- cost helpers ----------------------------------------------------------------
    def flops_time(self, flops: float) -> float:
        """Seconds for a pure-compute task of ``flops`` operations."""
        if flops < 0:
            raise HardwareError("negative flop count")
        return flops / (self.clock_hz * self.flops_per_cycle)

    def memory_time(
        self,
        nbytes: float,
        working_set: Optional[float] = None,
        pattern: str = AccessPattern.STREAM,
    ) -> float:
        """Seconds for a memory-bound task touching ``nbytes``."""
        return self.hierarchy.touch_time(nbytes, working_set, pattern)

    def task_time(
        self,
        flops: float = 0.0,
        nbytes: float = 0.0,
        working_set: Optional[float] = None,
        pattern: str = AccessPattern.STREAM,
    ) -> float:
        """Roofline-style cost: max of compute time and memory time."""
        return max(self.flops_time(flops), self.memory_time(nbytes, working_set, pattern))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CPU {self.name!r} {self.clock_hz / 1e6:g} MHz>"


class _Task:
    """One :meth:`CPU.busy_then` task, stepped by its grant's and its
    sleeps' callbacks where :meth:`CPU.busy` resumes."""

    __slots__ = ("cpu", "seconds", "then", "start")

    def __init__(self, cpu: CPU, seconds: float, then: Callable[[], None]):
        self.cpu = cpu
        self.seconds = seconds
        self.then = then
        grant = cpu._take()
        if grant is None:
            self._begin(True)
        else:
            grant.callbacks.append(self._granted)

    def _granted(self, _grant: Event) -> None:
        self._begin(False)

    def _begin(self, inline: bool) -> None:
        cpu = self.cpu
        self.start = cpu.sim._now
        self._step(cpu._first_sleep(self.seconds, inline))

    def _slept(self, _sleep: Event) -> None:
        self._step(self.cpu._next_sleep())

    def _step(self, sleep: Optional[Event]) -> None:
        if sleep is not None:
            sleep.callbacks.append(self._slept)
            return
        cpu = self.cpu
        cpu._account(self.start)
        cpu._release()
        self.then()
