"""Ethernet substrate: frames, wires, switch, NICs, topology."""

from .addresses import BROADCAST, MacAddress
from .batching import (
    BatchPolicy,
    DEFAULT_BATCH,
    PER_FRAME,
    WIRE_BATCH,
    adaptive_quantum,
)
from .fabric import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    NetworkTechnology,
    build_star,
)
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
from .link import Link, Wire
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

__all__ = [
    "BROADCAST",
    "BatchPolicy",
    "DEFAULT_BATCH",
    "FatTreeTopology",
    "HierarchicalFabric",
    "PER_FRAME",
    "StarTopology",
    "TorusTopology",
    "WIRE_BATCH",
    "adaptive_quantum",
    "ETHERNET_MTU",
    "ETHERNET_OVERHEAD",
    "FAST_ETHERNET",
    "Frame",
    "GIGABIT_ETHERNET",
    "IP_TCP_HEADERS",
    "Link",
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
