"""Discrete-event simulation substrate.

Public surface::

    from repro.sim import Simulator, Timeout, Store
    from repro.sim import FCFSBus, FairShareBus, TraceRecorder, RandomStreams
    from repro.sim import Environment, drive   # coroutine process API
"""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    Simulator,
    SimulationRunaway,
    Timeout,
    NORMAL,
    URGENT,
    set_trace_sink,
)
from .bus import BusStats, FCFSBus, FairShareBus
from .process import Environment, drive
from .rand import RandomStreams
from .resources import Store
from .sched import HeapScheduler, make_scheduler
from .trace import Span, TraceRecorder, merge_intervals

__all__ = [
    "AllOf",
    "AnyOf",
    "BusStats",
    "Environment",
    "Event",
    "FCFSBus",
    "FairShareBus",
    "HeapScheduler",
    "NORMAL",
    "Process",
    "RandomStreams",
    "SimulationRunaway",
    "Simulator",
    "Span",
    "Store",
    "Timeout",
    "TraceRecorder",
    "URGENT",
    "drive",
    "make_scheduler",
    "merge_intervals",
    "set_trace_sink",
]
