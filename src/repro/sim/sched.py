"""Event schedulers for the DES kernel.

The simulator orders events by the unique key ``(time, priority, seq)``
— ``seq`` is a monotone counter, so the order is a *total* order and any
correct priority queue yields the exact same pop sequence.  That is the
contract both schedulers here honour, which is what keeps
``results/fig*.csv`` byte-identical whichever one runs (pinned by the
``scheduler`` entries of the pair registry, ``tests/test_pairs.py``).

The scheduling contract is four methods —
``push``/``cancel``/``pop``/``peek_time`` — over 4-element mutable list
entries::

    [when, prio, seq, item]

``item`` is the payload (an ``Event`` or ``_Callback``); cancellation
tombstones an entry in place (``item = None``) and the heap drops dead
entries lazily when they surface at the root.  Cancelling an entry that
is already a tombstone (cancelled twice, or detached by the run loop at
dispatch) is a no-op.  List comparison never reaches index 3 because
``seq`` is unique.

Two implementations:

* ``repro.sim._csched.NativeScheduler`` — a C binary heap that caches
  each entry's ``(when, prio, seq)`` key in a C struct so every
  comparison is three scalar compares with no interpreter involvement.
  A :class:`~repro.sim.engine.Simulator` also binds it (``bind``) to run
  its event loop (``dispatch``, the compiled ``Simulator._dispatch``) and
  its pooled scheduling calls (``call_after``, ``call_at``,
  ``call_urgent``, ``sleep``) in C, step for step as the Python methods
  do; the ``dispatch`` entry of the pair registry holds them equal.
  The extension is optional — built via ``python setup.py build_ext
  --inplace``, which also builds the fabric's compiled slice loop
  (``repro.net._cadmit``, see :mod:`repro.net.flowclock`), the sort's
  bucket scatter (``repro.apps.sort._cbucket``) and the card-train loops
  (``repro.inic._ctrain``).  Every :class:`~repro.sim.engine.Simulator`
  runs on it when it imports.
* :class:`HeapScheduler` — the reference ``heapq`` implementation: the
  no-compiler fallback, and the side the pair registry holds the native
  heap equal to.  It reports ``compiled: False`` in its stats, and a
  Simulator on it runs the Python loop and methods.

Either way the pop stream is identical, so the backend never changes a
schedule.
"""

from __future__ import annotations

from heapq import heappop, heappush

try:  # optional compiled backend (python setup.py build_ext --inplace)
    from . import _csched
except ImportError:  # no compiler / wheel built without the extension
    _csched = None

__all__ = ["HeapScheduler", "make_scheduler", "native_available"]


class HeapScheduler:
    """Reference scheduler: one binary heap, lazy deletion."""

    kind = "heap"
    compiled = False
    __slots__ = ("_heap", "_live", "cancels")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._live = 0
        self.cancels = 0

    def __len__(self) -> int:
        return self._live

    def push(self, when: float, prio: int, seq: int, item) -> list:
        entry = [when, prio, seq, item]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def cancel(self, entry: list) -> None:
        if entry[3] is None:
            return  # already a tombstone: nothing live to withdraw
        entry[3] = None
        self._live -= 1
        self.cancels += 1

    def pop(self):
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[3] is not None:
                self._live -= 1
                return entry
        return None

    def peek_time(self):
        heap = self._heap
        while heap:
            if heap[0][3] is not None:
                return heap[0][0]
            heappop(heap)
        return None

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "compiled": False,
            "live": self._live,
            "cancels": self.cancels,
        }


def native_available() -> bool:
    """True when the ``repro.sim._csched`` extension is importable."""
    return _csched is not None


def make_scheduler():
    """The compiled C heap, or :class:`HeapScheduler` when the extension
    is unavailable."""
    if native_available():
        return _csched.NativeScheduler()
    return HeapScheduler()
