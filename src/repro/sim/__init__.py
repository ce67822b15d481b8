"""Discrete-event simulation substrate.

Public surface::

    from repro.sim import Simulator, Timeout, Resource, Store, Container
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
from .resources import Container, Request, Resource, Store
from .sched import HeapScheduler, SCHEDULER_KINDS, make_scheduler
from .trace import Span, TraceRecorder, merge_intervals

__all__ = [
    "AllOf",
    "AnyOf",
    "BusStats",
    "Container",
    "Environment",
    "Event",
    "FCFSBus",
    "FairShareBus",
    "HeapScheduler",
    "NORMAL",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SCHEDULER_KINDS",
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
