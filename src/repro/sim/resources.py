"""Shared-resource primitive for the DES kernel.

``Store``
    An unbounded-or-bounded FIFO of Python objects with blocking ``put``
    and ``get``.  Used for the INIC card's queues and FIFOs between
    simulated processes.

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
from .engine import Event, Simulator

__all__ = ["Store"]


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
