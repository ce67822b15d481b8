"""The cluster's switched-star Ethernet fabric at full wire fidelity.

The prototype (Section 5) is a star: every node's NIC plugs into one
switch.  ``build_star`` wires any set of frame devices (standard NICs or
INIC cards) to a freshly created switch and installs static forwarding:
one :class:`~repro.net.link.Wire` pair per station plus an
output-queued :class:`~repro.net.switch.Switch`, every hop its own
object with its own timed callbacks.

Device contract: ``attach_wire(wire)`` (device transmits on it) and
``receive_frame(frame)`` (device terminates the downlink).

The float-clock fabrics of :mod:`repro.net.topology` share that
contract.  Their one-switch case, ``build_aggregate_star``, is the
scale-out stand-in for this star (``Scale.large``, 32-128 nodes): it
folds uplink serialization, the forwarding decision and per-output-port
queueing into busy-until arithmetic, so a frame costs one timed callback
instead of four (see docs/performance.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, TYPE_CHECKING

from ..errors import NetworkError
from ..sim.engine import Simulator
from ..units import gbps, mbps
from .addresses import MacAddress
from .link import Wire
from .packet import Frame
from .switch import Switch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultPlan

__all__ = [
    "NetworkTechnology",
    "FAST_ETHERNET",
    "GIGABIT_ETHERNET",
    "build_star",
    "validate_stations",
]


def validate_stations(
    stations: Sequence[tuple[MacAddress, "FrameDevice"]]
) -> None:
    """Shared builder precondition: non-empty, no duplicate addresses."""
    if not stations:
        raise NetworkError("cannot build a fabric with no stations")
    addresses = [addr for addr, _ in stations]
    if len(set(a.value for a in addresses)) != len(addresses):
        raise NetworkError("duplicate station addresses in fabric")


@dataclass(frozen=True)
class NetworkTechnology:
    """Line-rate/latency bundle for a network generation."""

    name: str
    bandwidth: float  # bytes/s line rate
    propagation_delay: float  # seconds, cable + PHY
    switch_latency: float  # seconds, forwarding decision
    switch_buffer_per_port: float  # bytes


#: 100 Mb/s switched Fast Ethernet (the paper's low-end baseline)
FAST_ETHERNET = NetworkTechnology(
    name="fast-ethernet",
    bandwidth=mbps(100),
    propagation_delay=1e-6,
    switch_latency=6e-6,
    switch_buffer_per_port=64 * 1024,
)

#: 1 Gb/s Ethernet (SysKonnect PCI NIC + switch of the prototype)
GIGABIT_ETHERNET = NetworkTechnology(
    name="gigabit-ethernet",
    bandwidth=gbps(1),
    propagation_delay=1e-6,
    switch_latency=4e-6,
    switch_buffer_per_port=128 * 1024,
)


class FrameDevice(Protocol):
    """A station: transmits on an uplink, terminates a downlink."""

    def attach_wire(self, wire: Wire) -> None:  # pragma: no cover - protocol
        ...

    def receive_frame(self, frame: Frame) -> None:  # pragma: no cover - protocol
        ...


def build_star(
    sim: Simulator,
    stations: Sequence[tuple[MacAddress, FrameDevice]],
    tech: NetworkTechnology = GIGABIT_ETHERNET,
    name: str = "fabric",
    faults: Optional["FaultPlan"] = None,
) -> Switch:
    """Wire ``stations`` to a new switch; returns the switch.

    Each station gets a dedicated full-duplex link at ``tech.bandwidth``.
    A ``faults`` plan installs per-wire link-fault injectors (on matching
    wire names) and applies forced switch-buffer pressure.
    """
    validate_stations(stations)

    buffer_bytes = tech.switch_buffer_per_port
    if faults is not None:
        buffer_bytes = faults.switch_buffer(buffer_bytes)
    switch = Switch(
        sim,
        n_ports=len(stations),
        buffer_bytes_per_port=buffer_bytes,
        forwarding_latency=tech.switch_latency,
        name=f"{name}.switch",
    )
    for port, (addr, device) in enumerate(stations):
        uplink = Wire(
            sim, tech.bandwidth, tech.propagation_delay, name=f"{name}.up{port}"
        )
        uplink.attach(switch.ingress_sink(port))
        device.attach_wire(uplink)

        downlink = Wire(
            sim, tech.bandwidth, tech.propagation_delay, name=f"{name}.down{port}"
        )
        downlink.attach(device)
        switch.attach_output(port, downlink)

        switch.learn(addr, port)
        if faults is not None:
            for wire in (uplink, downlink):
                wf = faults.wire_fault(wire.name)
                if wf is not None:
                    wire.install_fault(wf)
    return switch
