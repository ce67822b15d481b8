"""Ethernet substrate: frames, wires, switch, NICs, topology.

The :mod:`.topology` exports resolve lazily (PEP 562): that module is
also a CLI (``python -m repro.net.topology --ab``), and an eager import
here would put it in ``sys.modules`` before ``runpy`` executes it as
``__main__``, so its body would run twice.
"""

from importlib import import_module

from .addresses import BROADCAST, MacAddress
from .batching import adaptive_quantum, choose_quantum
from .fabric import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    NetworkTechnology,
    build_star,
)
from .link import Wire
from .nic import NICStats, StandardNIC
from .packet import (
    ETHERNET_MTU,
    ETHERNET_OVERHEAD,
    IP_TCP_HEADERS,
    MIN_FRAME_PAYLOAD,
    Frame,
    Train,
    wire_bytes,
)
from .switch import PortStats, Switch

#: lazily imported exports of :mod:`.topology`
_LAZY_TOPOLOGY = frozenset({
    "FatTreeTopology",
    "HierarchicalFabric",
    "StarTopology",
    "TorusTopology",
    "build_aggregate_star",
    "build_fattree",
    "build_torus",
    "torus_dims",
})


def __getattr__(name: str):
    if name not in _LAZY_TOPOLOGY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(".topology", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BROADCAST",
    "FatTreeTopology",
    "HierarchicalFabric",
    "StarTopology",
    "TorusTopology",
    "adaptive_quantum",
    "choose_quantum",
    "ETHERNET_MTU",
    "ETHERNET_OVERHEAD",
    "FAST_ETHERNET",
    "Frame",
    "GIGABIT_ETHERNET",
    "IP_TCP_HEADERS",
    "MIN_FRAME_PAYLOAD",
    "MacAddress",
    "NICStats",
    "NetworkTechnology",
    "PortStats",
    "StandardNIC",
    "Switch",
    "Train",
    "Wire",
    "build_aggregate_star",
    "build_fattree",
    "build_star",
    "build_torus",
    "torus_dims",
    "wire_bytes",
]
