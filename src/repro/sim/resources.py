"""Shared-resource primitives for the DES kernel.

These are the queueing building blocks the hardware models are made of:

``Resource``
    ``capacity`` identical servers with a FIFO wait queue (a mutex when
    ``capacity == 1``).

``Store``
    An unbounded-or-bounded FIFO of Python objects with blocking ``put``
    and ``get``.  Used for the INIC card's queues and FIFOs between
    simulated processes.

``Container``
    A continuous quantity with blocking ``put``/``get`` of amounts.  Used
    for buffer-space accounting (switch output buffers, INIC memory).

All waiting is expressed as events, so processes compose them with
timeouts via :class:`~repro.sim.engine.AnyOf` — and, since every event
is awaitable (:meth:`~repro.sim.engine.Event.__await__`), a coroutine
process simply writes ``item = await store.get()`` / ``await
store.put(item)``; the inline fast paths below are shared by both
styles.  A process interrupted while one of these operations is still
pending should withdraw it with ``store.cancel(op)`` /
``container.cancel(op)`` so the queue never hands a value to a waiter
that stopped listening (see ``docs/processes.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..errors import SimulationError
from .engine import NORMAL, Event, Simulator, _PENDING

__all__ = ["Resource", "Request", "Store", "Container"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Triggers when the resource grants a slot.  Must be released with
    :meth:`Resource.release` (or used via the ``with``-like helper
    :meth:`Resource.acquire`).  The display name is built lazily —
    requests are created on the DMA hot path.

    A granted request's value is ``None`` (SimPy's convention), not the
    request itself: an event holding itself as its value is a reference
    cycle only the cyclic collector can free, and :meth:`Simulator.run`
    pauses that collector, so every grant would leak until the run ends.
    """

    __slots__ = ("resource", "_t0")

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ (hot path; name built on demand).
        self.sim = resource.sim
        self._name = None
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self._entry = None
        self.resource = resource
        #: issue time, for wait accounting in ``Resource._grant``
        self._t0 = self.sim.now

    @property
    def name(self) -> str:
        if self._name is None:
            return f"request({self.resource.name})"
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        self._name = value


class Resource:
    """``capacity`` identical servers with FIFO queueing."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._users: set[Request] = set()
        self._queue: Deque[Request] = deque()
        # -- statistics ----------------------------------------------------
        self.total_requests = 0
        self.total_wait_time = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted.

        A free slot is granted inline: the same single schedule entry
        :meth:`_grant` makes through ``req.succeed()``, without the two
        calls, and with no wait to account (the request was issued now).
        """
        req = Request(self)
        self.total_requests += 1
        users = self._users
        if len(users) < self.capacity:
            users.add(req)
            req._value = None
            req._scheduled = True
            sim = req.sim
            req._entry = sim._push(sim._now, NORMAL, next(sim._seq), req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot (or cancel a queued request)."""
        if request in self._users:
            self._users.remove(request)
            self._dispatch()
        else:
            try:
                self._queue.remove(request)
            except ValueError:
                raise SimulationError(
                    f"release of unknown request on {self.name!r}"
                ) from None

    def _grant(self, req: Request) -> None:
        self._users.add(req)
        self.total_wait_time += self.sim.now - req._t0
        req.succeed()

    def _dispatch(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            self._grant(self._queue.popleft())

    def acquire(self):
        """Generator helper: ``req = yield from res.acquire()``.

        Yields the request event and returns the granted request, so the
        caller can later ``res.release(req)``.
        """
        req = self.request()
        yield req
        return req

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self.count}/{self.capacity} used, "
            f"{self.queue_length} queued>"
        )


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any):
        super().__init__(sim, name="store.put")
        self.item = item


class _StoreGet(Event):
    __slots__ = ()


class Store:
    """A FIFO of items with blocking put/get.

    ``capacity=None`` means unbounded (puts never block).

    Fast path: a ``put`` that fits (and hands to no waiter) and a ``get``
    that finds an item return *already-processed* events — a process
    yielding one continues inline without a trip through the event heap.
    Ordering stays deterministic (the resolution happens at the moment of
    the call); only genuinely blocking operations suspend.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "store",
    ):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[_StorePut] = deque()
        self._getters: Deque[_StoreGet] = deque()
        # -- statistics ----------------------------------------------------
        self.total_puts = 0
        self.total_gets = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once it is stored."""
        self.total_puts += 1
        if self.is_full:
            ev = _StorePut(self.sim, item)
            self._putters.append(ev)
            return ev
        # Fast path: the item is stored (or handed over) right now, so the
        # putter's own event resolves inline — zero heap entries for it,
        # and the event is born already-processed (``__new__`` skips the
        # callbacks-list allocation ``Event.__init__`` would do).
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
            if len(self.items) > self.max_occupancy:
                self.max_occupancy = len(self.items)
        ev = _StorePut.__new__(_StorePut)
        ev.sim = self.sim
        ev._name = "store.put"
        ev.callbacks = None
        ev._value = None
        ev._ok = True
        ev._scheduled = False
        ev._entry = None
        ev.item = item
        return ev

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item."""
        self.total_gets += 1
        if self.items:
            # Fast path: resolve inline (the getter never suspends); the
            # event is born already-processed, no callbacks list needed.
            item = self.items.popleft()
            ev = _StoreGet.__new__(_StoreGet)
            ev.sim = self.sim
            ev._name = "store.get"
            ev.callbacks = None
            ev._value = item
            ev._ok = True
            ev._scheduled = False
            ev._entry = None
            self._drain_putters()
        else:
            ev = _StoreGet(self.sim, name="store.get")
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self.items:
            item = self.items.popleft()
            self._drain_putters()
            return True, item
        return False, None

    def cancel(self, op: Event) -> bool:
        """Withdraw a still-pending ``get``/``put`` operation.

        The interrupt-recovery primitive: a process thrown an
        :class:`~repro.errors.Interrupt` while waiting on a store
        operation is detached from the event, but the operation itself
        stays queued — without this call a later item would be handed
        to (or space reserved for) a waiter that no longer listens.
        Returns ``True`` if the operation was found and withdrawn,
        ``False`` if it already completed (or was never pending here).
        A cancelled put's item is not admitted.
        """
        if op.triggered:
            return False
        for queue in (self._getters, self._putters):
            try:
                queue.remove(op)
                return True
            except ValueError:
                continue
        return False

    def _admit(self, ev: _StorePut) -> None:
        if self._getters:
            # Hand directly to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(ev.item)
        else:
            self.items.append(ev.item)
            self.max_occupancy = max(self.max_occupancy, len(self.items))
        ev.succeed(None)

    def _drain_putters(self) -> None:
        while self._putters and not self.is_full:
            self._admit(self._putters.popleft())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<Store {self.name!r} {len(self.items)}/{cap}>"


class _ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, sim: Simulator, amount: float):
        super().__init__(sim, name="container.put")
        self.amount = amount


class _ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, sim: Simulator, amount: float):
        super().__init__(sim, name="container.get")
        self.amount = amount


class Container:
    """A continuous quantity (e.g. bytes of buffer space).

    ``get(amount)`` blocks until at least ``amount`` is available;
    ``put(amount)`` blocks until it fits under ``capacity``.
    Waiters are served FIFO *without overtaking*: a large get at the head
    of the queue blocks smaller ones behind it (prevents starvation).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ):
        if capacity <= 0:
            raise SimulationError(f"container capacity must be > 0, got {capacity}")
        if not 0 <= init <= capacity:
            raise SimulationError(f"init level {init} outside [0, {capacity}]")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._level = float(init)
        self._putters: Deque[_ContainerPut] = deque()
        self._getters: Deque[_ContainerGet] = deque()
        self.min_level = self._level
        self.max_level = self._level

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError(f"container put of negative amount {amount}")
        ev = _ContainerPut(self.sim, amount)
        self._putters.append(ev)
        self._dispatch()
        return ev

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError(f"container get of negative amount {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"container get of {amount} exceeds capacity {self.capacity}"
            )
        ev = _ContainerGet(self.sim, amount)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self, amount: float) -> bool:
        """Non-blocking get; only succeeds if no getter is already waiting."""
        if not self._getters and self._level >= amount:
            self._set_level(self._level - amount)
            self._dispatch()
            return True
        return False

    def cancel(self, op: Event) -> bool:
        """Withdraw a still-pending ``get``/``put`` (see ``Store.cancel``).

        Removing a blocking head operation can unblock the queue behind
        it, so the dispatch loop reruns after a successful withdrawal.
        """
        if op.triggered:
            return False
        for queue in (self._getters, self._putters):
            try:
                queue.remove(op)
            except ValueError:
                continue
            self._dispatch()
            return True
        return False

    def _set_level(self, level: float) -> None:
        self._level = level
        self.min_level = min(self.min_level, level)
        self.max_level = max(self.max_level, level)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters and self._level + self._putters[0].amount <= self.capacity:
                ev = self._putters.popleft()
                self._set_level(self._level + ev.amount)
                ev.succeed(None)
                progressed = True
            if self._getters and self._level >= self._getters[0].amount:
                ev = self._getters.popleft()
                self._set_level(self._level - ev.amount)
                ev.succeed(None)
                progressed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Container {self.name!r} {self._level:g}/{self.capacity:g}>"
