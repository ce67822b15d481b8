"""Unit tests for the aggregate star: a ``HierarchicalFabric`` over a
one-switch ``StarTopology``.

The topology-generic cases (broadcast, faults, telemetry, serialization,
tail drop, trains) run over every float-clock fabric in
``test_topology.py``; these pin the star's builder validation, its
timing against the full wire star, and its bulk-train admission.
"""

import pytest

from repro.errors import NetworkError
from repro.net import Frame, GIGABIT_ETHERNET, MacAddress, build_star
from repro.net.topology import HierarchicalFabric, StarTopology, build_aggregate_star
from repro.sim import Simulator


class Station:
    """Minimal FrameDevice for fabric tests."""

    def __init__(self, sim):
        self.sim = sim
        self.wire = None
        self.got = []

    def attach_wire(self, wire):
        self.wire = wire

    def receive_frame(self, frame):
        self.got.append((frame, self.sim.now))

    def send(self, frame):
        self.wire.send(frame)


def make_fabric(n=3, tech=GIGABIT_ETHERNET, builder=build_aggregate_star, **opts):
    sim = Simulator()
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), tech=tech, **opts)
    return sim, stations, addrs, fabric


def test_unicast_timing_matches_wire_star():
    """An uncontended frame arrives at the identical simulated time on
    both fidelity levels."""
    arrivals = {}
    for builder in (build_star, build_aggregate_star):
        sim, stations, addrs, _ = make_fabric(builder=builder)
        stations[0].send(Frame(addrs[0], addrs[2], payload_bytes=1500, headers=40))
        sim.run()
        assert len(stations[2].got) == 1
        assert stations[1].got == []
        arrivals[builder.__name__] = stations[2].got[0][1]
    assert arrivals["build_star"] == arrivals["build_aggregate_star"]


def test_zero_fault_plan_is_byte_identical():
    """Building with faults=None and with no plan at all produce the
    same arrival times (no injector hooks, no perturbation)."""
    times = []
    for opts in ({}, {"faults": None}):
        sim, stations, addrs, _ = make_fabric(**opts)
        stations[0].send(Frame(addrs[0], addrs[2], payload_bytes=1500))
        sim.run()
        times.append(stations[2].got[0][1])
    assert times[0] == times[1]


def test_builder_validates_stations():
    sim = Simulator()
    with pytest.raises(NetworkError):
        build_aggregate_star(sim, [])
    s = [Station(sim), Station(sim)]
    dup = [(MacAddress(1), s[0]), (MacAddress(1), s[1])]
    with pytest.raises(NetworkError, match="duplicate"):
        build_aggregate_star(sim, dup)
    with pytest.raises(NetworkError, match="at least one station"):
        StarTopology(0)
    with pytest.raises(NetworkError, match="bandwidth"):
        HierarchicalFabric(sim, StarTopology(2), bandwidth=-1.0)


def test_bulk_train_admission_matches_frame_level():
    """The exchange pattern replayed bulk vs frame-level: every arrival
    float and the conservation ledger must be identical."""
    from .test_pairs import _replay

    ref, ref_ledger, _ = _replay(build_aggregate_star, {}, 16, bulk=False)
    got, ledger, fabric = _replay(build_aggregate_star, {}, 16, bulk=True)
    assert got == ref
    assert ledger == ref_ledger
    assert fabric.trains_fast > 0


def test_bulk_train_tail_drop_boundary_matches():
    """The harness's incast burst overflows one egress buffer inside a
    train; which frames survive (and the drop ledger) must not depend
    on the admission path."""
    from .test_pairs import _replay

    ref, ref_ledger, _ = _replay(build_aggregate_star, {}, 16, bulk=False)
    got, ledger, _ = _replay(build_aggregate_star, {}, 16, bulk=True)
    assert ref_ledger["frames_dropped"] > 0
    assert ledger == ref_ledger
    assert got == ref
