"""Discrete-event simulation kernel.

A minimal but complete generator-coroutine DES kernel in the style of
SimPy, written from scratch for this reproduction so the whole system has
no dependencies beyond numpy/scipy.

Concepts
--------
``Simulator``
    Owns the event heap and the clock.  ``run()`` pops events in
    (time, priority, sequence) order and fires their callbacks.

``Event``
    A one-shot occurrence.  Processes ``yield`` events to wait on them.
    An event is *triggered* when scheduled and *processed* once its
    callbacks have run.  ``succeed(value)`` / ``fail(exc)`` resolve it.

``Timeout``
    An event that triggers after a fixed delay.

``Process``
    Wraps a generator **or a coroutine**.  Each ``yield`` (or ``await``)
    suspends the process until the yielded event fires; the event's
    value is sent back into the body (or its exception thrown in).  A
    ``Process`` is itself an event that triggers when the body returns,
    making process composition (``yield self.sim.process(child())`` /
    ``await self.sim.process(child())``) natural.  Both styles drive the
    exact same resume loop: an ``await``-authored process produces the
    identical ``(time, priority, seq)`` event stream as its
    ``yield``-authored twin (see :mod:`repro.sim.process` and
    ``python -m repro.sim --ab-process``).

``AnyOf`` / ``AllOf``
    Composite conditions over several events.

Fast path
---------
The hot loop of every figure sweep is ``run()`` popping millions of
events, most of which are one of two shapes:

* a bare timed callback (wire deliveries, bus completions, switch
  forwarding) — represented by a pooled, closure-free :class:`_Callback`
  heap entry created with :meth:`Simulator.call_after`, which never
  allocates an :class:`Event` at all;
* an anonymous ``yield sim.sleep(dt)`` inside a model process —
  represented by a free-list-pooled :class:`Timeout` that the run loop
  recycles once its callbacks have fired.

``run()`` does the per-event work inline, and ``Timeout`` builds its
display name lazily — the f-string only exists if someone actually
prints the event.

Determinism
-----------
Events scheduled for the same timestamp fire in (priority, insertion
order).  Nothing in the kernel consults a random source, so identical
inputs yield identical schedules — a property the test suite checks.
(The one exception is a test hook, off by default, that breaks
same-time ties at random to show which results depend on push order.)
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import sys
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import ProcessError, SimTimeError
from .sched import make_scheduler

__all__ = [
    "Simulator",
    "SimulationRunaway",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "URGENT",
    "NORMAL",
    "set_trace_sink",
]

# Event priorities: URGENT events at a timestamp fire before NORMAL ones.
URGENT = 0
NORMAL = 1

_PENDING = object()  # sentinel: event value not yet set

#: bound on the kernel free lists (Timeout / _Callback recycling)
_POOL_MAX = 1024

#: default scheduler kind; overridable per-instance or via environment.
#: "native" is the compiled C heap when the optional extension is built,
#: and the pure-python reference heap otherwise — identical pop order
#: either way (sched_stats()["compiled"] reports which ran).
_DEFAULT_SCHEDULER = "native"

#: module-level event-trace sink (A/B ordering harness).  When set, every
#: Simulator constructed afterwards appends ``(when, prio, seq, type)``
#: per dispatched event.  ``python -m repro.sim --ab`` uses this to diff
#: the reference heap scheduler against the compiled native one.
_TRACE_SINK: Optional[list] = None


def set_trace_sink(sink: Optional[list]) -> None:
    """Install (or clear) the event-trace sink for new Simulators."""
    global _TRACE_SINK
    _TRACE_SINK = sink


#: module-level tiebreak seed (test hook, ROADMAP item 1).  When set,
#: every Simulator constructed afterwards draws random high bits into
#: its sequence numbers, so entries of equal ``(time, priority)`` fire
#: in a seeded random order instead of push order.
_TIEBREAK_SEED: Optional[int] = None


def _set_tiebreak_seed(seed: Optional[int]) -> None:
    """Test hook: break same-time ties at random (``None``: push order)."""
    global _TIEBREAK_SEED
    _TIEBREAK_SEED = seed


def _random_tiebreak(seed: int):
    """Sequence numbers with 30 random high bits over the push count."""
    bits = random.Random(seed).getrandbits
    for n in itertools.count():
        yield (bits(30) << 32) | n


class SimulationRunaway(SimTimeError):
    """Raised when ``run(max_events=...)`` exceeds its event budget."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on."""

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_entry", "_name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self._name = name
        #: callables invoked with this event when it is processed; set to
        #: ``None`` afterwards so late additions fail loudly.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False
        #: scheduler entry while queued (enables O(1) ``cancel``)
        self._entry: Optional[list] = None

    # -- identity ---------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value

    # -- state ----------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) on the heap."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    # -- resolution -------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Resolve the event successfully at the current simulation time."""
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined delay-0 ``Simulator._schedule`` (hot path: every store
        # handoff, request grant, and process completion lands here).
        if self._scheduled:
            raise RuntimeError(f"{self!r} is already scheduled")
        self._scheduled = True
        sim = self.sim
        self._entry = sim._push(sim._now, priority, next(sim._seq), self)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Resolve the event with an exception.

        Any process waiting on it will have the exception thrown in.
        """
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when this event is processed.

        If the event has already been processed the callback runs
        immediately (same semantics as adding a done-callback to a
        resolved future).
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __await__(self):
        """Awaitable protocol: ``await event`` inside a coroutine process.

        Yields the event itself to the driving :class:`Process` — the
        same object a generator process would ``yield`` — so an
        ``await``-style body suspends, resumes, and orders its events
        identically to the generator style.  The value the process
        driver sends back becomes the value of the ``await`` expression.
        """
        return (yield self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation.

    The display name is built lazily — ``run()`` never pays for a name
    f-string that nothing prints.
    """

    __slots__ = ("delay", "_pooled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimTimeError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__ (this constructor is on the hot path).
        self.sim = sim
        self._name = None
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = False
        self._entry = None
        self.delay = delay
        self._pooled = False
        sim._schedule(self, NORMAL, delay)

    @property
    def name(self) -> str:
        if self._name is None:
            return f"timeout({self.delay:g})"
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value


class _Callback:
    """A pooled, closure-free timed callback heap entry.

    Not an :class:`Event` — nothing can wait on it, which is exactly why
    the run loop can recycle it the moment it fires.  Created via
    :meth:`Simulator.call_after`.
    """

    __slots__ = ("fn", "args")

    def __init__(self) -> None:
        self.fn: Optional[Callable[..., None]] = None
        self.args: tuple = ()


class Initialize(Event):
    """Internal: kicks off a newly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim, name="init")
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        sim._schedule(self, URGENT)


class Process(Event):
    """A running simulated activity wrapping a generator or coroutine.

    The process is itself an :class:`Event` that triggers with the
    body's return value when it finishes (or fails with its uncaught
    exception).  Generators yield events; coroutines ``await`` them
    (via :meth:`Event.__await__`) — the driver below is shared, so the
    two styles are event-for-event identical.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise ProcessError(
                f"process body must be a generator or coroutine, got {generator!r}"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        Initialize(sim, self)

    # -- engine plumbing --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._ok:
                    target = self._generator.send(event._value)
                else:
                    target = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return

            if not isinstance(target, Event):
                self.fail(
                    ProcessError(
                        f"process {self.name!r} yielded/awaited non-event "
                        f"{target!r}"
                    )
                )
                return
            if target.sim is not self.sim:
                self.fail(
                    ProcessError(
                        f"process {self.name!r} yielded event of another simulator"
                    )
                )
                return

            if target.callbacks is not None:
                # Target still pending: subscribe and suspend.
                target.callbacks.append(self._resume)
                return
            # Target already processed: loop and continue immediately.
            event = target


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name=type(self).__name__)
        self.events = tuple(events)
        self._n_fired = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise ProcessError("condition mixes events from different simulators")
            ev.add_callback(self._on_fire)
        if not self.events:
            # Vacuous conditions resolve immediately.
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # ``processed`` (callbacks ran) rather than ``triggered``: a Timeout
        # carries its value from creation, but it hasn't *happened* until
        # the heap pops it.
        return {ev: ev._value for ev in self.events if ev.processed}

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._n_fired += 1
        if self._check():
            self.succeed(self._collect())

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers when any constituent event triggers.

    Value is a dict of the events that had fired by then.
    """

    __slots__ = ()

    def _check(self) -> bool:
        return self._n_fired >= 1


class AllOf(_Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._n_fired == len(self.events)


class Simulator:
    """The event loop: a clock plus a scheduler of pending events.

    ``scheduler`` picks the priority-queue implementation (see
    :mod:`repro.sim.sched`): ``"native"`` (default) is the compiled C
    heap (the reference heap when the extension isn't built), ``"heap"``
    the reference binary heap.  Both honour the same unique
    ``(time, priority, seq)`` total order, so the choice never changes
    a schedule — only how fast it executes.
    The environment variable ``REPRO_SIM_SCHEDULER`` overrides the
    default for A/B runs; an explicit ``scheduler=`` argument beats the
    environment.
    """

    def __init__(self, scheduler: Optional[str] = None):
        self._now: float = 0.0
        # The argument wins over the environment; the environment wins
        # over the default.  Bad names fail *here*, naming their source
        # and every valid kind, not deep inside construction.
        if scheduler:
            kind, source = scheduler, "Simulator(scheduler=...)"
        else:
            kind = os.environ.get("REPRO_SIM_SCHEDULER") or ""
            if kind:
                source = "the REPRO_SIM_SCHEDULER environment variable"
            else:
                kind, source = _DEFAULT_SCHEDULER, "the built-in default"
        try:
            self._sched = make_scheduler(kind)
        except ValueError as exc:
            raise ValueError(f"{exc}; the kind came from {source}") from None
        self._sched_kind = kind
        # Bound-method alias: the push path runs once per scheduled
        # event, so the extra attribute hop through ``_sched`` matters.
        self._push = self._sched.push
        if _TIEBREAK_SEED is None:
            self._seq = itertools.count()
        else:
            self._seq = _random_tiebreak(_TIEBREAK_SEED)
        #: free lists for the two hot-path entry shapes (see module docs)
        self._timeout_pool: list[Timeout] = []
        self._callback_pool: list[_Callback] = []
        #: number of events processed so far (diagnostics / loop guards)
        self.event_count: int = 0
        #: event-trace sink for the A/B ordering harness (usually None)
        self._trace = _TRACE_SINK
        #: the scheduler entry being dispatched (``[when, prio, seq,
        #: None]`` once detached), so a model can tell where in the
        #: same-time order it runs (``CPU.steal``'s fold rule)
        self._firing: Optional[list] = None

    # -- clock ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def scheduler_kind(self) -> str:
        """The scheduler implementation this simulator runs on."""
        return self._sched_kind

    def sched_stats(self) -> dict:
        """Scheduler-internal counters (kind, compiled, live entries, cancels)."""
        return self._sched.stats()

    # -- event factories ----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """A pooled ``timeout(delay)`` for fire-and-forget waits.

        Contract: the caller must not retain the returned event past its
        firing — the run loop recycles it into a free list as soon as its
        callbacks have run.  The canonical use is an anonymous
        ``yield sim.sleep(dt)`` inside a model process.  Do not pass the
        result to ``any_of``/``all_of`` or store it; use ``timeout()``
        for those cases.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimTimeError(f"negative timeout delay: {delay!r}")
            t = pool.pop()
            t.delay = delay
            t.callbacks = []
            t._value = None
            t._ok = True
            # Inlined ``_schedule`` (delay already validated and a pool
            # entry is by definition not scheduled).
            t._scheduled = True
            t._entry = self._push(self._now + delay, NORMAL, next(self._seq), t)
            return t
        t = Timeout(self, delay)
        t._pooled = True
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimTimeError(f"cannot schedule event in the past (delay={delay!r})")
        if event._scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        event._scheduled = True
        event._entry = self._push(self._now + delay, priority, next(self._seq), event)

    def succeed_later(
        self, event: Event, delay: float, value: Any = None, priority: int = NORMAL
    ) -> Event:
        """Schedule ``event`` to succeed with ``value`` after ``delay``.

        Equivalent to a timed ``event.succeed(value)`` but with a single
        heap entry — the event itself — instead of a trampoline callback
        plus a second same-time entry.
        """
        if event._value is not _PENDING:
            raise RuntimeError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        self._schedule(event, priority, delay)
        return event

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` seconds (closure-free).

        Nothing can wait on the result, no :class:`Event` is allocated,
        and the scheduler entry is recycled through a free list.  This is what
        the wire, switch, and bus models use for their per-frame timed
        callbacks.  Returns an opaque handle accepted by
        :meth:`cancel_callback`.
        """
        if delay < 0:
            raise SimTimeError(f"cannot schedule callback in the past (delay={delay!r})")
        pool = self._callback_pool
        cb = pool.pop() if pool else _Callback()
        cb.fn = fn
        cb.args = args
        return self._push(self._now + delay, NORMAL, next(self._seq), cb)

    def call_urgent(self, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` at the current time, ahead of every NORMAL
        entry of this time (closure-free).

        One pooled URGENT entry: where a new process's start would run,
        so a callback state machine can begin in that place without a
        generator.  Returns a :meth:`cancel_callback` handle.
        """
        pool = self._callback_pool
        cb = pool.pop() if pool else _Callback()
        cb.fn = fn
        cb.args = args
        return self._push(self._now, URGENT, next(self._seq), cb)

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> list:
        """Run ``fn(*args)`` at absolute time ``when`` (closure-free).

        The absolute-time twin of :meth:`call_after`, for a caller that
        has summed several delays itself and wants the entry at exactly
        that float (``now + delay`` would round once more).  Returns a
        :meth:`cancel_callback` handle.
        """
        if when < self._now:
            raise SimTimeError(
                f"cannot schedule callback in the past (at {when!r}, "
                f"clock at {self._now!r})"
            )
        pool = self._callback_pool
        cb = pool.pop() if pool else _Callback()
        cb.fn = fn
        cb.args = args
        return self._push(when, NORMAL, next(self._seq), cb)

    def cancel_callback(self, handle) -> bool:
        """Cancel a pending :meth:`call_after`; True if it was withdrawn.

        ``handle`` is the value ``call_after`` returned.  Only valid
        before the callback fires — holders must clear their reference
        when the callback runs (the run loop detaches the payload from
        the entry at dispatch, so a stale cancel is a safe no-op).
        """
        cb = handle[3]
        if cb is None or cb.fn is None:
            return False
        self._sched.cancel(handle)
        cb.fn = None
        cb.args = ()
        if len(self._callback_pool) < _POOL_MAX:
            self._callback_pool.append(cb)
        return True

    def cancel(self, event: Event) -> bool:
        """Withdraw a scheduled-but-unprocessed event from the queue.

        Returns True if the event was queued and is now back to the
        *pending* state (it may be succeeded/failed again later); False
        if there was nothing to cancel (never scheduled, already fired,
        or already cancelled).  O(1) on both schedulers: the entry is
        tombstoned in place and dropped when it surfaces at the heap root.
        """
        entry = event._entry
        if entry is None or event.callbacks is None or not event._scheduled:
            return False
        if entry[3] is not event:
            return False
        self._sched.cancel(entry)
        event._entry = None
        event._scheduled = False
        event._value = _PENDING
        return True

    # -- execution ----------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if none are queued."""
        t = self._sched.peek_time()
        return t if t is not None else float("inf")

    def run(
        self, until: Optional[float | Event] = None, max_events: Optional[int] = None
    ) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the heap is empty.
            ``float``
                run until the clock reaches that time.
            ``Event``
                run until that event is processed; returns its value
                (raising its exception if it failed).
        max_events:
            optional hard cap on processed events (guards against
            accidental infinite event loops in tests).
        """
        stop_value: list[Any] = []
        if isinstance(until, Event):
            target = until

            def _stop(ev: Event) -> None:
                stop_value.append(ev)

            target.add_callback(_stop)
            horizon = float("inf")
        elif until is None:
            target = None
            horizon = float("inf")
        else:
            target = None
            horizon = float(until)
            if horizon < self._now:
                raise SimTimeError(
                    f"cannot run until {horizon!r}: clock already at {self._now!r}"
                )

        # Everything hot is bound to locals and both payload kinds are
        # dispatched inline — one type check each for the two dominant
        # shapes (``_Callback``, pooled ``Timeout``).  The per-event
        # overhead here bounds every figure sweep.
        sched = self._sched
        pop = sched.pop
        trace = self._trace
        cb_pool = self._callback_pool
        t_pool = self._timeout_pool
        callback_t = _Callback
        timeout_t = Timeout
        pending = _PENDING
        pool_max = _POOL_MAX
        finite = horizon != float("inf")
        limit = sys.maxsize if max_events is None else max_events
        processed = 0
        # The loop creates no reference cycles (a granted ``Request`` is
        # not its own value), so the cyclic collector would only traverse
        # the run's live state — TCP connections, card rings — again and
        # again; pause it and leave its state as the caller had it.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            while not stop_value:
                if finite:
                    t = sched.peek_time()
                    if t is None or t > horizon:
                        # Drained (advance to the horizon) or next event
                        # beyond it; time-based runs end at the horizon.
                        self._now = horizon
                        break
                entry = pop()
                if entry is None:
                    break
                self._now = entry[0]
                self._firing = entry
                processed += 1
                item = entry[3]
                entry[3] = None  # detach: stale cancel handles become no-ops
                if trace is not None:
                    trace.append((entry[0], entry[1], entry[2], type(item).__name__))
                if type(item) is callback_t:
                    fn = item.fn
                    args = item.args
                    item.fn = None
                    item.args = ()
                    if len(cb_pool) < pool_max:
                        cb_pool.append(item)
                    fn(*args)
                else:
                    # Event dispatch (the single other shape the
                    # scheduler ever holds).
                    callbacks = item.callbacks
                    item.callbacks = None
                    for fn in callbacks:
                        fn(item)
                    if type(item) is timeout_t:
                        if item._pooled and len(t_pool) < pool_max:
                            item._value = pending
                            t_pool.append(item)
                    elif not item._ok and not callbacks:
                        # A failed event nobody waited on: surface the
                        # error instead of silently dropping it.
                        raise item._value
                if processed >= limit:
                    raise SimulationRunaway(
                        f"exceeded max_events={max_events} (clock at {self._now:g}s)"
                    )
        finally:
            self.event_count += processed
            if gc_was_enabled:
                gc.enable()

        if target is not None:
            if not stop_value:
                raise RuntimeError(
                    f"simulation ran out of events before {target!r} triggered"
                )
            ev = stop_value[0]
            if ev._ok:
                return ev._value
            raise ev._value
        return None

    # -- observability -----------------------------------------------------------
    def register_telemetry(self, registry, prefix: str = "sim") -> None:
        """Register kernel instruments (pull-based; zero cost until read)."""
        registry.counter(f"{prefix}.events", lambda: float(self.event_count))
        registry.gauge(f"{prefix}.queued", lambda: float(len(self._sched)))
        registry.counter(
            f"{prefix}.sched.cancels", lambda: float(self._sched.stats()["cancels"])
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:g}s queued={len(self._sched)} "
            f"sched={self._sched_kind}>"
        )
