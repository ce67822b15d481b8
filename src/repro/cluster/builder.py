"""Cluster assembly: specs and the builder.

``ClusterSpec`` describes a whole machine; ``Cluster.build`` turns it
into a wired simulation: nodes, their protocol stacks, and either
standard NICs or INIC cards on a switched star fabric.

``athlon_node()`` captures the prototype node of Section 5 (1 GHz
Athlon, 64 KiB L1 / 256 KiB L2, PC133 SDRAM, 32-bit/33 MHz PCI).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..faults import FaultPlan, FaultSpec
from ..hw.cpu import CPU
from ..hw.interrupts import CoalescePolicy
from ..hw.memory import CacheLevel, MemoryHierarchy
from ..hw.pci import pci_32_33
from ..inic.card import CardSpec, INICCard
from ..net.addresses import MacAddress
from ..net.fabric import GIGABIT_ETHERNET, NetworkTechnology, build_star
from ..net.topology import (
    HierarchicalFabric,
    build_aggregate_star,
    build_fattree,
    build_torus,
)
from ..net.nic import StandardNIC
from ..net.switch import Switch
from ..protocols.tcp import TCPConfig, TCPStack
from ..sim.engine import Simulator
from ..sim.rand import RandomStreams
from ..sim.trace import TraceRecorder
from ..units import KiB
from .node import Node

__all__ = ["NodeHardware", "ClusterSpec", "Cluster", "FABRIC_KINDS", "athlon_node"]

#: supported ``ClusterSpec.fabric`` values, alphabetical
FABRIC_KINDS = ("aggregate", "fattree", "torus", "wire")

_FABRIC_BUILDERS = {
    "wire": build_star,
    "aggregate": build_aggregate_star,
    "fattree": build_fattree,
    "torus": build_torus,
}


@dataclass(frozen=True)
class NodeHardware:
    """Per-node hardware parameters."""

    clock_hz: float = 1e9  # 1 GHz Athlon
    flops_per_cycle: float = 1.0
    l1_bytes: int = 64 * KiB
    l1_stream_bw: float = 8e9
    l1_random_bw: float = 4e9
    l2_bytes: int = 256 * KiB
    l2_stream_bw: float = 2.5e9
    l2_random_bw: float = 1.2e9
    dram_stream_bw: float = 0.5e9  # PC133 SDRAM
    dram_random_bw: float = 0.1e9
    interrupt_cost: float = 8e-6
    # SysKonnect-style mitigation: fire after 70us or 10 frames.
    coalesce: CoalescePolicy = field(
        default_factory=lambda: CoalescePolicy(delay=70e-6, max_frames=10)
    )

    def hierarchy(self) -> MemoryHierarchy:
        return MemoryHierarchy(
            [
                CacheLevel("L1", self.l1_bytes, self.l1_stream_bw, self.l1_random_bw),
                CacheLevel("L2", self.l2_bytes, self.l2_stream_bw, self.l2_random_bw),
                CacheLevel(
                    "DRAM", float("inf"), self.dram_stream_bw, self.dram_random_bw
                ),
            ]
        )


def athlon_node() -> NodeHardware:
    """The prototype's node hardware (Section 5)."""
    return NodeHardware()


@dataclass(frozen=True)
class ClusterSpec:
    """A whole machine description."""

    n_nodes: int
    network: NetworkTechnology = GIGABIT_ETHERNET
    node: NodeHardware = field(default_factory=athlon_node)
    tcp: TCPConfig = field(default_factory=TCPConfig)
    inic: Optional[CardSpec] = None  # None: standard NICs + TCP
    seed: int = 0x5EED
    #: fault-injection scenario; ``None`` (or an all-default spec) keeps
    #: the ideal fabric with zero extra hooks installed
    faults: Optional[FaultSpec] = None
    #: fabric topology/fidelity: ``"wire"`` builds the full per-wire
    #: star, ``"aggregate"`` the O(ports) busy-until star, ``"fattree"``
    #: and ``"torus"`` the hierarchical multi-hop models
    #: (:mod:`repro.net.topology`)
    fabric: str = "wire"
    #: topology builder keyword options as sorted ``(key, value)`` pairs
    #: (kept hashable so the frozen spec stays usable as a cache key) —
    #: e.g. ``(("oversub", 2),)`` for a 2:1 fat-tree
    fabric_options: tuple[tuple[str, object], ...] = ()
    #: opt-in for the exchange-phase bulk fast path
    #: (:mod:`repro.net.flowclock`): cards admit train scatters in
    #: closed form when per-operation eligibility holds
    fastpath: bool = False

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        if self.fabric not in FABRIC_KINDS:
            raise ValueError(
                f"unknown fabric {self.fabric!r} for ClusterSpec.fabric "
                f"(choose from {', '.join(FABRIC_KINDS)})"
            )
        opts = tuple(
            sorted(
                (str(k), tuple(v) if isinstance(v, list) else v)
                for k, v in self.fabric_options
            )
        )
        object.__setattr__(self, "fabric_options", opts)
        if opts and self.fabric in ("wire", "aggregate"):
            names = ", ".join(k for k, _ in opts)
            raise ValueError(
                f"fabric options ({names}) are only valid for hierarchical "
                f"fabrics (fattree, torus), not fabric={self.fabric!r}"
            )

    def replace(self, **changes) -> "ClusterSpec":
        """A copy with ``changes`` applied (frozen-dataclass replace)."""
        return replace(self, **changes)


class Cluster:
    """A built, wired cluster simulation."""

    def __init__(
        self,
        spec: ClusterSpec,
        sim: Simulator,
        nodes: list[Node],
        switch: Switch | HierarchicalFabric,
        trace: TraceRecorder,
        streams: RandomStreams,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.spec = spec
        self.sim = sim
        self.nodes = nodes
        #: every station's address, by rank — one shared object per
        #: station, for applications that address all peers each phase
        self.addresses: tuple[MacAddress, ...] = tuple(
            node.address for node in nodes
        )
        self.switch = switch
        self.trace = trace
        self.streams = streams
        #: the scenario's fault injectors (``None`` on an ideal fabric);
        #: runners read its counters and realized schedule after a run
        self.fault_plan = fault_plan

    @property
    def size(self) -> int:
        return len(self.nodes)

    @classmethod
    def build(cls, spec: ClusterSpec) -> "Cluster":
        sim = Simulator()
        trace = TraceRecorder(sim)
        streams = RandomStreams(spec.seed)
        plan: Optional[FaultPlan] = None
        if spec.faults is not None and spec.faults.enabled:
            plan = FaultPlan(spec.faults)
        nodes: list[Node] = []
        stations = []
        for rank in range(spec.n_nodes):
            hw = spec.node
            cpu = CPU(
                sim,
                hw.hierarchy(),
                clock_hz=hw.clock_hz,
                flops_per_cycle=hw.flops_per_cycle,
                interrupt_cost=hw.interrupt_cost,
                name=f"cpu{rank}",
            )
            pci = pci_32_33(sim, name=f"pci{rank}")
            nic = tcp = inic = None
            if spec.inic is None:
                nic_kwargs = {}
                if plan is not None:
                    nic_kwargs["rx_ring"] = plan.rx_ring_depth(256)
                nic = StandardNIC(
                    sim,
                    address=NodeAddr(rank),
                    host_bus=pci,
                    cpu=cpu,
                    coalesce=hw.coalesce,
                    name=f"nic{rank}",
                    **nic_kwargs,
                )
                tcp = TCPStack(sim, nic, cpu, config=spec.tcp, name=f"tcp{rank}")
                stations.append((nic.address, nic))
            else:
                inic = INICCard(
                    sim,
                    address=NodeAddr(rank),
                    spec=spec.inic,
                    cpu=cpu,
                    name=f"inic{rank}",
                )
                inic.fastpath = spec.fastpath
                if plan is not None:
                    inic.fabric.install_config_fault(
                        lambda attempt, _name=inic.name: plan.config_attempt_fails(
                            _name, attempt
                        )
                    )
                stations.append((inic.address, inic))
            nodes.append(Node(sim, rank, cpu, pci, nic=nic, tcp=tcp, inic=inic))
        builder = _FABRIC_BUILDERS[spec.fabric]
        switch = builder(
            sim,
            stations,
            tech=spec.network,
            faults=plan,
            **dict(spec.fabric_options),
        )
        if plan is not None and plan.spec.components:
            install = getattr(switch, "install_component_faults", None)
            if install is None:
                names = ", ".join(
                    c.component for c in plan.spec.components
                )
                raise ValueError(
                    f"fabric {spec.fabric!r} cannot schedule component "
                    f"faults ({names}): the full wire star has no "
                    f"failable components (choose from "
                    f"{', '.join(k for k in FABRIC_KINDS if k != 'wire')})"
                )
            install(plan)
        return cls(spec, sim, nodes, switch, trace, streams, fault_plan=plan)

    def run(self, until=None, max_events=None):
        return self.sim.run(until=until, max_events=max_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "inic" if self.spec.inic else "tcp"
        return f"<Cluster {self.size}x {kind} over {self.spec.network.name}>"


def NodeAddr(rank: int):
    """Address for a rank (thin alias to keep builder readable)."""
    from ..net.addresses import MacAddress

    return MacAddress(rank)
