"""Shared-resource primitives for the DES kernel.

``Store``
    An unbounded-or-bounded FIFO of Python objects with blocking ``put``
    and ``get``.  Used for the INIC card's queues and FIFOs between
    simulated processes.

``Resource``
    ``capacity`` identical servers with a FIFO wait queue (a mutex when
    ``capacity == 1``).  No model uses it: it is the reference that
    :class:`~repro.hw.cpu.CPU`'s inline core grant is tested against.

All waiting is expressed as events, so processes compose them with
timeouts via :class:`~repro.sim.engine.AnyOf` — and, since every event
is awaitable (:meth:`~repro.sim.engine.Event.__await__`), a coroutine
process simply writes ``item = await store.get()`` / ``await
store.put(item)``; the inline fast paths below are shared by both
styles.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..errors import SimulationError
from .engine import NORMAL, Event, Simulator, _PENDING

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Triggers when the resource grants a slot.  Must be released with
    :meth:`Resource.release`.  The display name is built lazily.

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
