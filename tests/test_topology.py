"""Unit tests for the float-clock fabrics (aggregate star, fat-tree, torus).

Pins the contracts ``repro.net.topology`` makes:

* **Low-load star equivalence** — an uncontended frame arrives at the
  identical simulated time on the full wire star, the aggregate star,
  the fat-tree, and the torus (the ``stars`` entry of the pair registry,
  ``test_pairs.py``, runs the same probe larger).
* **Contention** — uplink and output-port serialization, byte-accounted
  tail drop at the egress port, shared inter-switch links.
* **Routing geometry** — deterministic spine selection, dimension-
  ordered torus routing with shortest-wrap at the boundaries.
* **Edge cases across fabric kinds** — duplicate addresses, port
  exhaustion, zero-byte frames, fault composition, telemetry naming,
  bulk train admission.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.faults import ComponentFaultSpec, FaultSpec, FaultPlan, WireFault
from repro.net import (
    BROADCAST,
    ETHERNET_MTU,
    Frame,
    GIGABIT_ETHERNET,
    MacAddress,
    Train,
    build_star,
)
from repro.net import topology as topology_module
from repro.net.topology import (
    FatTreeTopology,
    HierarchicalFabric,
    StarTopology,
    TorusTopology,
    build_aggregate_star,
    build_fattree,
    build_torus,
    torus_dims,
)
from repro.sim import Simulator

ALL_BUILDERS = [build_star, build_aggregate_star, build_fattree, build_torus]
HIER_BUILDERS = [build_aggregate_star, build_fattree, build_torus]


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


def make_fabric(builder, n=8, **opts):
    sim = Simulator()
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    return sim, stations, addrs, fabric


# -- low-load star equivalence (the A/B anchor) -----------------------------


def test_low_load_arrivals_match_single_star():
    """The ``stars`` pair's probe, smaller: scattered low-load traffic
    arrives at byte-identical times on the wire star and every
    float-clock fabric."""
    from .test_pairs import FABRICS, _ab_arrivals

    ref, _ = _ab_arrivals(build_star, n=24, frames=120, gap=1e-3)
    for label, builder, opts in FABRICS:
        got, fabric = _ab_arrivals(builder, n=24, frames=120, gap=1e-3, **opts)
        assert got == ref, f"{label} diverged from the wire star"
        # the star is one hop; the hierarchies are actually multi-hop
        assert (fabric.hop_stats()["max_hops"] == 1) == (label == "aggregate")


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_uncontended_unicast_matches_wire_star(builder):
    arrivals = {}
    for b in (build_star, builder):
        sim, stations, addrs, _ = make_fabric(b, n=8)
        stations[0].send(Frame(addrs[0], addrs[7], payload_bytes=1500, headers=40))
        sim.run()
        assert len(stations[7].got) == 1
        arrivals[b.__name__] = stations[7].got[0][1]
    assert arrivals[builder.__name__] == arrivals["build_star"]


# -- contention on the aggregate star ----------------------------------------


def test_output_port_serializes_two_senders():
    sim, stations, addrs, fabric = make_fabric(build_aggregate_star, n=3)
    f = lambda src: Frame(addrs[src], addrs[2], payload_bytes=1460, headers=40)
    stations[0].send(f(0))
    stations[1].send(f(1))
    sim.run()
    (first, t1), (second, t2) = stations[2].got
    tx = first.wire_size / GIGABIT_ETHERNET.bandwidth
    # Second frame queues behind the first on port 2: exactly one more
    # serialization time, no more and no less.
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)
    assert fabric.port_stats(2).frames_forwarded == 2
    assert fabric.port_stats(2).max_queue_bytes > first.wire_size


def test_uplink_serializes_back_to_back_sends():
    sim, stations, addrs, _ = make_fabric(build_aggregate_star, n=3)
    for _ in range(2):
        stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=1000))
    sim.run()
    (_, t1), (_, t2) = stations[1].got
    tx = stations[1].got[0][0].wire_size / GIGABIT_ETHERNET.bandwidth
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)
    assert stations[0].wire.frames_sent == 2
    assert stations[0].wire.utilization(sim.now) > 0.0


def test_backlog_past_port_buffer_tail_drops():
    sim, stations, addrs, fabric = make_fabric(build_aggregate_star, n=3)
    n = 200  # 200 * ~1538B wire >> the 128 KiB per-port buffer
    for _ in range(n):
        stations[0].send(Frame(addrs[0], addrs[2], payload_bytes=1460, headers=40))
        stations[1].send(Frame(addrs[1], addrs[2], payload_bytes=1460, headers=40))
    sim.run()
    stats = fabric.port_stats(2)
    assert stats.frames_dropped > 0
    assert stats.frames_forwarded + stats.frames_dropped == 2 * n
    assert len(stations[2].got) == stats.frames_forwarded
    assert fabric.total_dropped() == stats.frames_dropped
    assert fabric.total_dropped_bytes() == stats.bytes_dropped
    # Forwarded backlog never exceeded the buffer.
    assert stats.max_queue_bytes <= fabric.buffer_bytes_per_port


# -- routing geometry --------------------------------------------------------


def test_fattree_routes_are_deterministic_and_well_formed():
    topo = FatTreeTopology(64, oversub=2)
    assert topo.n_leaves * topo.leaf_ports >= 64
    for src in range(64):
        for dst in range(64):
            if src == dst:
                continue
            hops = topo.route(src, dst)
            assert hops == topo.route(src, dst)  # no ECMP jitter
            assert hops[-1] == dst  # egress clock is the station port
            same_leaf = src // topo.leaf_ports == dst // topo.leaf_ports
            assert len(hops) == (1 if same_leaf else 3)


def test_fattree_same_spine_for_same_destination():
    """Traffic to one destination always crosses one spine — the
    deterministic ECMP-free choice the docstring promises."""
    topo = FatTreeTopology(64, leaf_ports=8)
    dst = 42
    spines = set()
    for src in range(64):
        if src // 8 == dst // 8:
            continue
        hops = topo.route(src, dst)
        spines.add((hops[1] - topo._spine_base) // topo.n_leaves)
    assert len(spines) == 1


def test_torus_dims_factorizations():
    assert torus_dims(1024) == (8, 8, 16)
    assert torus_dims(64) == (4, 4, 4)
    assert torus_dims(8) == (2, 2, 2)
    assert torus_dims(1) == (1, 1, 1)
    x, y, z = torus_dims(96)
    assert x * y * z == 96


def test_torus_wraparound_takes_shorter_direction():
    """At a dimension boundary the route wraps instead of walking the
    long way: 0 -> 7 on an 8-wide ring is one negative-x hop."""
    topo = TorusTopology(512, dims=(8, 8, 8))
    hops = topo.route(0, 7)  # coords (0,0,0) -> (7,0,0)
    # one x- hop from router 0, then eject at router 7
    assert hops == (0 * 7 + 1, 7 * 7 + 6)
    # 0 -> 4 is distance 4 both ways; ties break positive: 4 x+ hops.
    hops = topo.route(0, 4)
    assert len(hops) == 5
    assert all(h % 7 == 0 for h in hops[:-1])  # all x+ direction clocks


def test_torus_dimension_ordered_xyz():
    topo = TorusTopology(64, dims=(4, 4, 4))
    # (0,0,0) -> (1,1,1): one hop per axis, in X, Y, Z order.
    dst = 1 + 4 * (1 + 4 * 1)
    hops = topo.route(0, dst)
    dirs = [h % 7 for h in hops[:-1]]
    assert dirs == [0, 2, 4]  # x+, y+, z+
    assert hops[-1] == dst * 7 + 6


def test_torus_wrap_contention_is_modelled():
    """Two flows that share the wrap link contend there: the second
    frame arrives one serialization time after the first."""
    sim, stations, addrs, fabric = make_fabric(build_torus, n=8, dims=(8, 1, 1))
    # 0->7 and 1->7: 0 wraps x- (link router0.x-), 1 routes 1->0->7 so
    # its second hop crosses router0.x- too.
    f = lambda src: Frame(addrs[src], addrs[7], payload_bytes=1460, headers=40)
    stations[0].send(f(0))
    stations[1].send(f(1))
    sim.run()
    (first, t1), (second, t2) = stations[7].got
    tx = first.wire_size / GIGABIT_ETHERNET.bandwidth
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)


def test_fattree_shared_spine_link_serializes():
    """Two cross-leaf flows to the same destination share the spine
    downlink and the egress port; arrivals space by one tx time."""
    sim, stations, addrs, fabric = make_fabric(
        build_fattree, n=9, leaf_ports=3
    )
    f = lambda src: Frame(addrs[src], addrs[8], payload_bytes=1460, headers=40)
    stations[0].send(f(0))  # leaf 0
    stations[3].send(f(3))  # leaf 1
    sim.run()
    (first, t1), (_, t2) = stations[8].got
    tx = first.wire_size / GIGABIT_ETHERNET.bandwidth
    assert t2 == pytest.approx(t1 + tx, rel=1e-9)


# -- edge cases across all fabric kinds --------------------------------------


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_duplicate_station_addresses_rejected(builder):
    sim = Simulator()
    s = [Station(sim), Station(sim)]
    dup = [(MacAddress(1), s[0]), (MacAddress(1), s[1])]
    with pytest.raises(NetworkError, match="duplicate"):
        builder(sim, dup)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_empty_station_list_rejected(builder):
    with pytest.raises(NetworkError):
        builder(Simulator(), [])


def test_fattree_port_exhaustion():
    with pytest.raises(NetworkError, match="out of ports"):
        FatTreeTopology(10, leaf_ports=3, leaves=3)
    sim = Simulator()
    stations = [(MacAddress(i), Station(sim)) for i in range(10)]
    with pytest.raises(NetworkError, match="out of ports"):
        build_fattree(sim, stations, leaf_ports=3, leaves=3)


def test_torus_port_exhaustion():
    with pytest.raises(NetworkError, match="out of ports"):
        TorusTopology(9, dims=(2, 2, 2))
    sim = Simulator()
    stations = [(MacAddress(i), Station(sim)) for i in range(9)]
    with pytest.raises(NetworkError, match="out of ports"):
        build_torus(sim, stations, dims=(2, 2, 2))


def test_bad_topology_parameters():
    with pytest.raises(NetworkError, match="oversub"):
        FatTreeTopology(8, oversub=0)
    with pytest.raises(NetworkError, match="leaf_ports"):
        FatTreeTopology(8, leaf_ports=0)
    with pytest.raises(NetworkError, match="three positive"):
        TorusTopology(8, dims=(2, 4))
    with pytest.raises(NetworkError, match="three positive"):
        TorusTopology(8, dims=(2, -2, 2))


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_zero_byte_frames_deliver_everywhere(builder):
    """A zero-payload frame still pads to the Ethernet minimum and
    arrives at the same time on every fidelity level."""
    sim, stations, addrs, _ = make_fabric(builder, n=4)
    stations[0].send(Frame(addrs[0], addrs[3], payload_bytes=0, headers=8))
    sim.run()
    assert len(stations[3].got) == 1
    frame, t = stations[3].got[0]
    assert frame.payload_bytes == 0
    assert frame.wire_size > 0  # padded to MIN_FRAME_PAYLOAD + overhead
    assert t > 0.0


def test_zero_byte_frame_times_agree_across_kinds():
    times = set()
    for builder in ALL_BUILDERS:
        sim, stations, addrs, _ = make_fabric(builder, n=4)
        stations[0].send(Frame(addrs[0], addrs[3], payload_bytes=0, headers=8))
        sim.run()
        times.add(stations[3].got[0][1])
    assert len(times) == 1


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_broadcast_fans_out(builder):
    sim, stations, addrs, fabric = make_fabric(builder, n=6)
    stations[2].send(Frame(addrs[2], BROADCAST, payload_bytes=100))
    sim.run()
    assert [len(s.got) for s in stations] == [1, 1, 0, 1, 1, 1]
    assert fabric.total_forwarded() == 5


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_unknown_destination_raises(builder):
    sim, stations, addrs, _ = make_fabric(builder, n=2)
    with pytest.raises(NetworkError, match="no forwarding entry"):
        stations[0].send(Frame(addrs[0], MacAddress(99), payload_bytes=64))


# -- fault composition -------------------------------------------------------


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_fault_plan_composes_with_hierarchical_fabrics(builder):
    sim = Simulator()
    n = 4
    stations = [Station(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    spec = FaultSpec(loss_rate=0.5, seed=9)
    plan = FaultPlan(spec)
    fabric = builder(sim, list(zip(addrs, stations)), faults=plan)
    sent = 200
    for _ in range(sent):
        stations[0].send(Frame(addrs[0], addrs[3], payload_bytes=500))
    sim.run()
    dropped = plan.link_counters()["frames_dropped"]
    assert dropped > 0
    assert len(stations[3].got) == sent - dropped
    # The stream is per-uplink and named like the wire star's uplinks:
    # same seed, same name => identical decision sequence.
    ref = WireFault(spec, "fabric.up0")
    got = [d for _, d, _ in plan.schedule()["fabric.up0"]]
    want = []
    f = Frame(addrs[0], addrs[3], payload_bytes=500)
    for _ in range(len(got)):
        while ref.disposition(f, 0.0) == "deliver":
            pass
        want.append(ref.log[-1][1])
    assert got == want


def make_fault_fabric(spec, n=3):
    plan = FaultPlan(spec)
    sim, stations, addrs, fabric = make_fabric(
        build_aggregate_star, n=n, faults=plan
    )
    return sim, stations, addrs, fabric, plan


def test_fault_outage_window_drops_everything():
    spec = FaultSpec(outages=((0.0, 1.0),), seed=3)
    sim, stations, addrs, fabric, plan = make_fault_fabric(spec)
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=500))
    sim.run()
    assert stations[1].got == []
    assert plan.link_counters()["frames_dropped"] == 1


def test_fault_corrupt_burns_uplink_time():
    """A corrupted transfer occupies the uplink (delaying the next send)
    but is never delivered — mirroring Wire.send's CRC semantics."""
    spec = FaultSpec(corrupt_rate=1.0, seed=5)
    sim, stations, addrs, fabric, plan = make_fault_fabric(spec)
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=1000))
    sim.run()
    assert stations[1].got == []
    uplink = stations[0].wire
    assert uplink.busy_time > 0.0
    assert uplink.frames_sent == 0  # never made it past the CRC
    assert plan.link_counters()["frames_corrupted"] == 1


def test_fault_streams_identical_across_fabric_kinds():
    """Same seed, same uplink names => the drop pattern is the same
    frame indices on the aggregate star and on both hierarchies."""
    patterns = []
    for builder in (build_aggregate_star, build_fattree, build_torus):
        sim = Simulator()
        stations = [Station(sim) for _ in range(4)]
        addrs = [MacAddress(i) for i in range(4)]
        plan = FaultPlan(FaultSpec(loss_rate=0.3, seed=21))
        builder(sim, list(zip(addrs, stations)), faults=plan)
        got = []
        for i in range(100):
            stations[0].send(
                Frame(addrs[0], addrs[2], payload_bytes=500, meta={"i": i})
            )
        sim.run()
        got = sorted(f.meta["i"] for f, _ in stations[2].got)
        patterns.append(tuple(got))
    assert patterns[0] == patterns[1] == patterns[2]


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_fault_buffer_pressure_applies(builder):
    sim = Simulator()
    stations = [(MacAddress(i), Station(sim)) for i in range(4)]
    plan = FaultPlan(FaultSpec(switch_buffer_scale=0.25, seed=1, loss_rate=1e-9))
    fabric = builder(sim, stations, faults=plan)
    assert fabric.buffer_bytes_per_port == pytest.approx(
        GIGABIT_ETHERNET.switch_buffer_per_port * 0.25
    )


# -- statistics & telemetry --------------------------------------------------


def test_hop_stats_accounting():
    sim, stations, addrs, fabric = make_fabric(build_fattree, n=9, leaf_ports=3)
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=100))  # same leaf: 1
    stations[0].send(Frame(addrs[0], addrs[8], payload_bytes=100))  # cross: 3
    sim.run()
    hs = fabric.hop_stats()
    assert hs["frames"] == 2
    assert hs["total_hops"] == 4
    assert hs["max_hops"] == 3
    assert hs["avg_hops"] == pytest.approx(2.0)


@pytest.mark.parametrize("builder", HIER_BUILDERS)
def test_telemetry_surface_is_star_compatible_plus_switches(builder):
    from repro.telemetry import MetricsRegistry

    sim, stations, addrs, fabric = make_fabric(builder, n=4)
    registry = MetricsRegistry()
    fabric.register_telemetry(registry, "switch")
    stations[0].send(Frame(addrs[0], addrs[3], payload_bytes=500))
    sim.run()
    snap = registry.snapshot()
    assert snap["switch.forwarded"] == 1
    assert snap["switch.drops"] == 0
    assert snap["switch.port3.frames"] == 1
    assert snap["switch.port3.bytes"] > 500
    assert snap["switch.hops"] >= 1
    assert snap["switch.avg_hops"] >= 1.0
    sw_frames = [v for k, v in snap.items() if k.endswith(".frames") and ".sw." in k]
    assert sum(sw_frames) >= 1  # per-switch aggregates present and live


def test_port_stats_resolve_to_egress_clock():
    sim, stations, addrs, fabric = make_fabric(build_torus, n=8)
    stations[0].send(Frame(addrs[0], addrs[5], payload_bytes=700))
    sim.run()
    assert fabric.port_stats(5).frames_forwarded == 1
    assert fabric.port_stats(0).frames_forwarded == 0
    name = fabric.topology.clock_name(fabric._egress_clock[5])
    assert name.endswith("eject")


def test_fattree_clock_names():
    topo = FatTreeTopology(9, leaf_ports=3)
    assert topo.clock_name(0) == "leaf0.down0"
    assert topo.clock_name(4) == "leaf1.down1"
    up0 = topo._up_base
    assert topo.clock_name(up0).startswith("leaf0.up")
    assert topo.clock_name(topo._spine_base).startswith("spine0.down")
    names = {topo.clock_name(c) for c in range(topo.n_clocks)}
    assert len(names) == topo.n_clocks  # all distinct


# -- builder/spec integration ------------------------------------------------


def test_cluster_spec_fabric_options_roundtrip():
    from repro.cluster.builder import ClusterSpec, FABRIC_KINDS

    spec = ClusterSpec(n_nodes=16).replace(
        fabric="fattree", fabric_options=(("oversub", 2),)
    )
    assert spec.fabric == "fattree"
    assert spec.fabric_options == (("oversub", 2),)
    with pytest.raises(ValueError, match="unknown fabric 'mesh'"):
        ClusterSpec(n_nodes=2, fabric="mesh")
    with pytest.raises(ValueError, match="choose from"):
        ClusterSpec(n_nodes=2, fabric="mesh")
    with pytest.raises(ValueError, match="only valid for hierarchical"):
        ClusterSpec(n_nodes=2, fabric="wire", fabric_options=(("oversub", 2),))
    # list-valued options become tuples so the frozen spec stays hashable
    spec = ClusterSpec(n_nodes=8).replace(
        fabric="torus", fabric_options=(("dims", [2, 2, 2]),)
    )
    assert spec.fabric_options == (("dims", (2, 2, 2)),)
    hash(spec.fabric_options)


def test_experiment_facade_builds_hierarchical_cluster():
    from repro.core.api import Experiment
    from repro.net.topology import HierarchicalFabric

    session = Experiment().nodes(16).fabric("fattree", oversub=2).build()
    assert isinstance(session.cluster.switch, HierarchicalFabric)
    assert session.cluster.switch.topology.oversub == 2
    session = Experiment().nodes(8).fabric("torus", dims=(2, 2, 2)).build()
    assert session.cluster.switch.topology.dims == (2, 2, 2)


@pytest.mark.parametrize("kind", ["fattree", "torus"])
def test_hierarchical_fabrics_reject_batch_option(kind):
    # No fabric merges trains (senders batch at the source), so a batch
    # option, whatever its value, would be silently ignored: the build
    # must refuse it.
    from repro.core.api import Experiment

    exp = Experiment().nodes(8).fabric(kind, batch=False)
    with pytest.raises(TypeError, match="batch"):
        exp.build()


def test_scale_by_name_error_names_choices():
    from repro.bench.harness import Scale
    from repro.errors import ApplicationError

    with pytest.raises(ApplicationError, match="unknown scale 'huge'"):
        Scale.by_name("huge")
    with pytest.raises(ApplicationError, match="bench, ci, large, paper"):
        Scale.by_name("huge")
    assert Scale.by_name("large").topologies == ("fattree", "torus")


# -- bulk flow-clock admission (repro.net.flowclock) ------------------------
@pytest.mark.parametrize(
    "builder,opts",
    [
        (build_fattree, {}),
        (build_fattree, {"oversub": 2}),
        (build_torus, {}),
        (build_aggregate_star, {}),
    ],
)
def test_bulk_exchange_matches_frame_level(builder, opts):
    """Bulk train admission through every float-clock fabric: arrival
    floats, per-hop ledger, and drop accounting identical to the
    frame-level path.  On the tail-dropping topologies the harness's
    incast burst overflows an egress buffer inside a train, so which
    frames survive must not depend on the admission path; the lossless
    torus drops nothing."""
    from .test_pairs import _replay

    ref, ref_ledger, _ = _replay(builder, opts, 16, bulk=False)
    got, ledger, fabric = _replay(builder, opts, 16, bulk=True)
    assert got == ref
    assert ledger == ref_ledger
    assert fabric.trains_fast > 0
    assert (ref_ledger["frames_dropped"] > 0) == (not fabric.topology.lossless)


def _install_fault(fabric, fault):
    """An injector on uplink 0 (``"uplink"``), or a staged component
    window on uplink 1 (``"component"``)."""
    if fault == "uplink":
        spec = FaultSpec(seed=7, loss_rate=0.25, corrupt_rate=0.1)
        fabric.uplink(0).install_fault(WireFault(spec, fabric.uplink(0).name))
    else:
        window = ComponentFaultSpec("up1", windows=((0.0, 1e-3),), kind="uplink")
        fabric.install_component_faults(FaultPlan(FaultSpec(components=(window,))))


@pytest.mark.parametrize("fault", ["uplink", "component"])
def test_send_train_refuses_a_faulted_fabric(fault):
    """A train is admitted only where no fault can touch it: on a
    faulted uplink, or on a fabric with staged component windows,
    ``send_train`` raises and no clock or counter moves."""
    sim, stations, addrs, fabric = make_fabric(build_aggregate_star, n=4)
    _install_fault(fabric, fault)
    train = Train(addrs[0], headers=8)
    for i in range(6):
        train.append(addrs[1 + i % 3], 1000, i * 1e-6)
    before = _diff_state(fabric, [])
    with pytest.raises(NetworkError, match="cannot take a train"):
        fabric.uplink(0).send_train(train)
    sim.run()
    assert sim.event_count == 0 and fabric.trains_fast == 0
    assert _diff_state(fabric, []) == before
    assert all(st.got == [] for st in stations)


@pytest.mark.parametrize("fault", ["uplink", "component"])
def test_faults_are_installed_before_the_run(fault):
    """Once the run has started, neither an uplink injector nor a
    component schedule can be installed, so no window arms while a train
    is in flight: not from a callback inside the first ``run()`` call,
    before any event count is booked, nor after it returns."""
    sim, stations, addrs, fabric = make_fabric(build_aggregate_star, n=4)
    errors = []

    def install():
        with pytest.raises(NetworkError, match="installed before the run") as exc:
            _install_fault(fabric, fault)
        errors.append(exc.value)

    sim.call_after(1e-3, install)
    sim.run()
    assert len(errors) == 1
    stations[0].send(Frame(addrs[0], addrs[1], payload_bytes=100))
    sim.run()
    assert sim.event_count > 0
    with pytest.raises(NetworkError, match="installed before the run"):
        _install_fault(fabric, fault)
    assert fabric.uplink(0).fault is None and fabric.fastpath_ok()


def test_zero_length_train_is_a_no_op():
    sim, stations, addrs, fabric = make_fabric(build_aggregate_star, n=3)
    assert fabric.uplink(0).send_train(Train(addrs[0], headers=8)) == sim.now
    sim.run()
    assert fabric.trains_fast == 0
    assert all(st.got == [] for st in stations)


def test_train_length_mismatch_rejected():
    sim, stations, addrs, fabric = make_fabric(build_aggregate_star, n=3)
    train = Train(addrs[0], headers=8)
    train.append(addrs[1], 64, 0.0)
    train.times.append(1.0)
    with pytest.raises(ValueError, match="train mismatch"):
        fabric.uplink(0).send_train(train)


# -- slice loop vs frame-level admission (differential) ---------------------
#: dyadic fabric constants: every clock sum and backlog product is exact,
#: so generated buffers land *on* the tail-drop comparison, not near it
_DIFF_BANDWIDTH = 2.0 ** 27
_DIFF_TOPOLOGIES = {
    "star": lambda n: StarTopology(n),
    "fattree": lambda n: FatTreeTopology(n, leaf_ports=4),
    "fattree-oversub2": lambda n: FatTreeTopology(n, oversub=2, leaf_ports=4),
    "torus": lambda n: TorusTopology(n),
}


def _diff_fabric(kind, n, buffer_bytes, timing=None):
    sim = Simulator()
    fabric = HierarchicalFabric(
        sim,
        _DIFF_TOPOLOGIES[kind](n),
        buffer_bytes_per_port=buffer_bytes,
        **(timing or _DIFF_TIMING),
    )
    for port in range(n):
        station = Station(sim)
        station.attach_wire(fabric.uplink(port))
        fabric.attach_station(port, station)
        fabric.learn(MacAddress(port), port)
    return fabric


#: dyadic timing: the frame-level and slice paths then round alike
_DIFF_TIMING = {
    "bandwidth": _DIFF_BANDWIDTH,
    "propagation_delay": 2.0 ** -20,
    "forwarding_latency": 2.0 ** -18,
}


def _diff_train(src, entries, times):
    train = Train(MacAddress(src), headers=8)
    for (dst, size, count), t in zip(entries, times):
        dst = BROADCAST if dst is None else MacAddress(dst)
        train.append(dst, size, t, frame_count=count)
    return train


def _diff_state(fabric, arrivals):
    ports = [
        (s.frames_forwarded, s.frames_dropped, s.bytes_forwarded,
         s.bytes_dropped, s.max_queue_bytes)
        for s in map(fabric.clock_stats, range(fabric.topology.n_clocks))
    ]
    uplinks = [
        (u._busy_until, u.frames_sent, u.bytes_sent, u.busy_time)
        for u in fabric._uplinks
    ]
    counters = (
        fabric._frames_in, fabric._hops_total, fabric._max_hops,
        fabric._frames_routed, list(fabric._clock_busy),
        fabric.conservation_counters(),
    )
    return arrivals, ports, uplinks, counters


@st.composite
def _diff_scenarios(draw):
    kind = draw(st.sampled_from(sorted(_DIFF_TOPOLOGIES)))
    n = draw(st.integers(3, 12))
    # Most frames share one size, so backlogs are whole multiples of its
    # wire size and a buffer of k * wire (+-1 byte) sits on the boundary.
    common = draw(st.integers(0, 1500))
    wire = Frame(MacAddress(0), MacAddress(1), payload_bytes=common,
                 headers=8).wire_size
    buffer_bytes = draw(st.integers(1, 6)) * wire + draw(st.sampled_from((-1, 0, 1)))
    frame = st.tuples(
        st.integers(0, n - 1),
        st.one_of(st.just(common), st.integers(0, 3000)),
        st.integers(1, 3),
    )
    trains = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1),               # sender
            st.integers(0, 64),                  # start, 2^-16 s units
            st.integers(0, 8),                   # send gap, 2^-20 s units
            st.lists(frame, min_size=1, max_size=24),
        ),
        min_size=1,
        max_size=8,
    ))
    return kind, n, max(buffer_bytes, 1), trains


@settings(max_examples=60, deadline=None)
@given(_diff_scenarios())
def test_slice_admission_matches_frame_level(scenario):
    """``_admit_slice`` is the fused form of per-frame ``_admit`` with
    delivery collected: on every topology, for random unicast column
    trains (buffers at the tail-drop boundary), arrivals, every clock's
    ``PortStats``, the uplink clocks and counters, the routing counters
    and the conservation ledger are bit-equal to admitting each frame
    ``Train.frame`` builds at time zero and delivering it through the
    simulator."""
    kind, n, buffer_bytes, trains = scenario
    fused = _diff_fabric(kind, n, buffer_bytes)
    framewise = _diff_fabric(kind, n, buffer_bytes)
    fused_arrivals = []
    sent = {}  # frame uid -> (train, index, send time)
    for k, (src, start, gap, entries) in enumerate(trains):
        times = [start * 2.0 ** -16 + i * gap * 2.0 ** -20 for i in range(len(entries))]
        train = _diff_train(src, entries, times)
        sink = []
        fused._admit_slice(fused.uplink(src), train, 0, len(train), sink)
        fused_arrivals += [(k, port, i, at) for port, i, at in sink]
        uplink = framewise.uplink(src)
        for i, t in enumerate(times):
            frame = train.frame(i)
            sent[frame.uid] = (k, i, t)
            framewise._admit(uplink, frame, t, frame.wire_size / framewise.bandwidth)
    framewise.sim.run()
    framewise_arrivals = []
    for port, station in enumerate(framewise._devices):
        for frame, at in station.got:
            k, i, t = sent[frame.uid]
            framewise_arrivals.append((k, port, i, t + (at - t)))
    assert _diff_state(fused, sorted(fused_arrivals)) == _diff_state(
        framewise, sorted(framewise_arrivals)
    )


# -- the compiled slice loop ---------------------------------------------------
needs_kernel = pytest.mark.skipif(
    topology_module._cadmit is None,
    reason="compiled slice loop not built (python setup.py build_ext --inplace)",
)


def _reference_fabric(kind, n, buffer_bytes, timing=None):
    """A ``_diff_fabric`` whose slice loop is the Python reference."""
    fabric = _diff_fabric(kind, n, buffer_bytes, timing)
    fabric._kernel = None
    return fabric


@needs_kernel
def test_compiled_slice_loop_hands_back_what_it_does_not_cover():
    """The kernel returns, untouched, the first frame that is a route-memo
    miss; with the memo warm it admits a unicast run whole."""
    fabric = _diff_fabric("fattree", 8, 1 << 20)
    kernel = fabric._kernel
    uplink = fabric.uplink(0)
    entries = [(5, 100, 1), (6, 100, 1), (5, 100, 1), (6, 100, 1)]
    train = _diff_train(0, entries, [0.0, 0.0, 1e-3, 2e-3])
    sink = []
    assert kernel.admit(uplink, train, 0, 4, sink) == 0  # cold memo
    assert sink == [] and uplink._busy_until == 0.0 and fabric._frames_in == 0
    fabric._admit_slice(uplink, train, 0, 2, sink)  # warms routes to 5 and 6
    sink = []
    assert kernel.admit(uplink, train, 2, 4, sink) == 4
    assert [(port, i) for port, i, _ in sink] == [(5, 2), (6, 3)]


@needs_kernel
@pytest.mark.parametrize(
    "defect", ["no forwarding entry", "no station attached", "broadcast"]
)
def test_compiled_slice_loop_raises_the_reference_errors(defect):
    """A frame the kernel hands back for a missing forwarding entry or a
    missing station goes through the reference loop: same error, same
    state left behind.  A broadcast frame has no forwarding entry, so a
    train cannot carry one."""
    states = []
    for fabric in (_diff_fabric("star", 4, 1 << 20),
                   _reference_fabric("star", 4, 1 << 20)):
        entries = [(1, 100, 1), (2, 100, 1), (3, 100, 1)]
        if defect == "broadcast":
            entries[1] = (None, 100, 1)
        elif defect == "no forwarding entry":
            del fabric._table[2]
        else:
            fabric._devices[2] = None
        train = _diff_train(0, entries, [0.0, 1e-6, 2e-6])
        sink = []
        error = "no forwarding entry" if defect == "broadcast" else defect
        with pytest.raises(NetworkError, match=error):
            fabric._admit_slice(fabric.uplink(0), train, 0, 3, sink)
        states.append(repr(_diff_state(fabric, sink)))
    assert states[0] == states[1]


def test_fabric_reports_which_slice_loop_runs():
    fabric = _diff_fabric("star", 2, 1 << 20)
    assert fabric.compiled is (topology_module._cadmit is not None)



# -- overlapping trains: slice skew and drop ledgers --------------------------
#: frames per sender in the overlap probes
_OVERLAP_FRAMES = 300
_OVERLAP_CASES = {
    "aggregate": (build_aggregate_star, {}),
    "fattree": (build_fattree, {}),
    "fattree-oversub2": (build_fattree, {"oversub": 2}),
    "torus": (build_torus, {}),
}
#: largest per-frame arrival skew, in admission slices, of bulk vs
#: frame-level admission at moderate load, over the four fabrics at
#: n=8 and n=32.  Measured maximum: 1.02 slices (fat-tree 2:1, n=32);
#: n=8 peaks at 0.83.  More than the one slice flowclock once claimed.
_MODERATE_SKEW_SLICES = 1.05


class _TagStation(Station):
    """Records each frame's arrival time under its ``(src, index)`` tag."""

    def __init__(self, sim):
        super().__init__(sim)
        self.at = {}

    def receive_frame(self, frame):
        self.at[frame.payload] = self.sim.now

    def receive_train(self, trains, idx, times):
        for train, i, t in zip(trains, idx, times):
            self.at[train.payload[i]] = t


def _overlap_replay(fabric_kind, n, bulk, gap, offset):
    """Every station sends one train of MTU frames, round-robin over its
    peers, ``gap`` apart from ``src * offset`` on, so all trains
    overlap.  Bulk admission, or per-frame sends scheduled as the
    fallback schedules them; returns (arrivals by tag, ledger)."""
    builder, opts = _OVERLAP_CASES[fabric_kind]
    sim = Simulator()
    stations = [_TagStation(sim) for _ in range(n)]
    addrs = [MacAddress(i) for i in range(n)]
    fabric = builder(sim, list(zip(addrs, stations)), **opts)
    for src in range(n):
        base = src * offset
        times = [base + i * gap for i in range(_OVERLAP_FRAMES)]
        dsts = [addrs[(src + 1 + i % (n - 1)) % n] for i in range(_OVERLAP_FRAMES)]

        def fire(src=src, times=times, dsts=dsts):
            wire = stations[src].wire
            if bulk:
                train = Train(addrs[src], headers=8)
                for i, (dst, t) in enumerate(zip(dsts, times)):
                    train.append(dst, ETHERNET_MTU, t, payload=(src, i))
                wire.send_train(train)
                return
            now = sim.now
            for i, (dst, t) in enumerate(zip(dsts, times)):
                frame = Frame(addrs[src], dst, payload_bytes=ETHERNET_MTU,
                              headers=8, payload=(src, i))
                if t <= now:
                    wire.send(frame)
                else:
                    sim.call_after(t - now, wire.send, frame)

        sim.call_after(base, fire)
    sim.run()
    arrivals = {}
    for station in stations:
        arrivals.update(station.at)
    return arrivals, fabric.conservation_counters()


def _assert_ledger_balances(arrivals, ledger, n):
    assert ledger["frames_in"] == n * _OVERLAP_FRAMES
    assert ledger["frames_in"] == (
        ledger["frames_delivered"] + ledger["frames_dropped"]
        + ledger["partition_drops"]
    )
    assert ledger["frames_delivered"] == len(arrivals)


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("fabric_kind", sorted(_OVERLAP_CASES))
def test_overlapping_trains_moderate_load_skew_is_bounded(fabric_kind, n):
    """Moderate load: MTU frames 2^-15 s apart (~40% of the gigabit
    uplink), train starts 2^-14 s apart.  Overlapping trains interleave
    at slice granularity, so arrivals shift, but by at most
    ``_MODERATE_SKEW_SLICES`` admission slices, and no frame is dropped
    on either path."""
    from repro.net.flowclock import ADMIT_SLICE

    gap, offset = 2.0 ** -15, 2.0 ** -14
    ref, ref_ledger = _overlap_replay(fabric_kind, n, False, gap, offset)
    got, ledger = _overlap_replay(fabric_kind, n, True, gap, offset)
    assert ledger == ref_ledger
    assert ledger["frames_dropped"] == 0
    _assert_ledger_balances(got, ledger, n)
    assert got.keys() == ref.keys()
    skew = max(abs(got[tag] - ref[tag]) for tag in ref)
    assert skew <= _MODERATE_SKEW_SLICES * ADMIT_SLICE


def _overload(fabric_kind):
    """Near line rate: 32 senders start together, MTU frames 2^-18 s
    apart (faster than the uplink drains), both admission modes."""
    gap = 2.0 ** -18
    return (
        _overlap_replay(fabric_kind, 32, False, gap, 0.0),
        _overlap_replay(fabric_kind, 32, True, gap, 0.0),
    )


@pytest.mark.parametrize("fabric_kind", sorted(_OVERLAP_CASES))
def test_overlapping_trains_overload_ledgers_balance(fabric_kind):
    """Near line rate the skew reaches several slices (5 on the
    aggregate star, 24 on the torus), but each mode still accounts for
    every frame it was given."""
    (ref, ref_ledger), (got, ledger) = _overload(fabric_kind)
    _assert_ledger_balances(ref, ref_ledger, 32)
    _assert_ledger_balances(got, ledger, 32)


_TAIL_DROP_DIVERGES = pytest.mark.xfail(
    strict=True,
    reason="bulk admission is not exact under overlapping trains: trains "
    "meet each other's egress backlog at slice, not frame, granularity, "
    "so tail drops differ (ROADMAP item 4, overlap skew)",
)


@pytest.mark.parametrize(
    "fabric_kind",
    [
        pytest.param(kind, marks=() if kind == "torus" else _TAIL_DROP_DIVERGES)
        for kind in sorted(_OVERLAP_CASES)
    ],
)
def test_overlapping_trains_overload_ledgers_match(fabric_kind):
    """The lossless torus drops nothing either way; on the tail-dropping
    fabrics the two modes drop different frames."""
    (_, ref_ledger), (_, ledger) = _overload(fabric_kind)
    assert ledger == ref_ledger
