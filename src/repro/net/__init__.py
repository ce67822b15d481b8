"""Ethernet substrate: frames, wires, switch, NICs, topology."""

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
from .topology import (
    FatTreeTopology,
    HierarchicalFabric,
    StarTopology,
    TorusTopology,
    build_aggregate_star,
    build_fattree,
    build_torus,
    torus_dims,
)

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
