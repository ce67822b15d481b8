"""Frame-train batching (DESIGN.md §7, docs/performance.md).

Senders batch at the source: :func:`adaptive_quantum` sizes a train
within the policy's timing tolerance, and the fabric forwards each
``frame_count``-weighted frame as it arrived.  Batched runs are
deterministic: two identical runs produce identical delivery schedules
and event counts.
"""

import pytest

from repro.errors import PacketError
from repro.net import (
    BatchPolicy,
    Frame,
    MacAddress,
    PER_FRAME,
    Switch,
    Wire,
    adaptive_quantum,
)
from repro.net.packet import ETHERNET_MTU
from repro.sim import Simulator

MTU = ETHERNET_MTU


# -- adaptive_quantum arithmetic ----------------------------------------------------


def test_adaptive_quantum_tolerance_bound():
    policy = BatchPolicy(timing_tolerance=100e-6, max_quantum=512)
    # (q - 1) * unit_time <= tolerance  ->  q = 1 + 10 at 10 us/frame
    assert adaptive_quantum(1000, 10e-6, policy) == 11
    # the bound adapts to the wire: slower frames, smaller quantum
    assert adaptive_quantum(1000, 50e-6, policy) == 3


def test_adaptive_quantum_caps():
    policy = BatchPolicy(timing_tolerance=1.0, max_quantum=32)
    assert adaptive_quantum(1000, 10e-6, policy) == 32  # max_quantum cap
    assert adaptive_quantum(7, 10e-6, policy) == 7  # never exceeds total
    assert adaptive_quantum(1, 10e-6, policy) == 1
    assert adaptive_quantum(0, 10e-6, policy) == 1


def test_adaptive_quantum_disabled_and_errors():
    assert adaptive_quantum(1000, 10e-6, PER_FRAME) == 1
    with pytest.raises(PacketError):
        adaptive_quantum(-1, 10e-6)
    with pytest.raises(PacketError):
        BatchPolicy(timing_tolerance=-1.0)
    with pytest.raises(PacketError):
        BatchPolicy(max_quantum=0)


# -- source-batched trains through a switch port ------------------------------------


class _Collector:
    """Terminal frame sink recording (time, seq, frame_count, bytes)."""

    def __init__(self, sim):
        self.sim = sim
        self.deliveries = []

    def receive_frame(self, frame):
        self.deliveries.append(
            (self.sim.now, frame.seq, frame.frame_count, frame.payload_bytes)
        )


def _run_switch_burst(quantum, n_frames=24):
    """One message of ``n_frames`` MTU frames, sent as ``quantum``-frame
    trains through a fast-in/slow-out switch port (so a backlog forms)."""
    sim = Simulator()
    switch = Switch(sim, 2, forwarding_latency=4e-6)
    up = Wire(sim, 125e6, 1e-6, name="up")
    up.attach(switch.ingress_sink(0))
    down = Wire(sim, 12.5e6, 1e-6, name="down")
    collector = _Collector(sim)
    down.attach(collector)
    switch.attach_output(1, down)
    switch.learn(MacAddress(1), 1)
    for first in range(0, n_frames, quantum):
        count = min(quantum, n_frames - first)
        up.send(
            Frame(
                src=MacAddress(0),
                dst=MacAddress(1),
                payload_bytes=count * MTU,
                headers=8,
                frame_count=count,
                kind="raw",
                seq=first * MTU,
            )
        )
    sim.run()
    return sim, collector, down, switch


def test_batched_runs_are_deterministic():
    sim_a, col_a, down_a, switch = _run_switch_burst(quantum=5)
    sim_b, col_b, _, _ = _run_switch_burst(quantum=5)
    assert col_a.deliveries == col_b.deliveries
    assert sim_a.event_count == sim_b.event_count
    # The port forwards each train as it arrived, in order, and frees
    # every buffer byte it charged.
    assert [count for _, _, count, _ in col_a.deliveries] == [5, 5, 5, 5, 4]
    assert [seq for _, seq, _, _ in col_a.deliveries] == [
        k * 5 * MTU for k in range(5)
    ]
    assert down_a.frames_sent == 24
    assert switch._outputs[1].queued_bytes == 0
    assert switch.total_dropped() == 0


def test_switch_merge_respects_max_quantum_and_buffer_accounting():
    # The port merges nothing: trains sized at the source under the
    # policy's max_quantum reach the sink no larger than that cap.
    batched = BatchPolicy(timing_tolerance=1.0, max_quantum=4)
    quantum = adaptive_quantum(24, MTU / 125e6, batched)
    assert quantum == 4
    _, col, down, switch = _run_switch_burst(quantum)
    assert all(count <= 4 for _, _, count, _ in col.deliveries)
    assert sum(count for _, _, count, _ in col.deliveries) == 24
    assert down.frames_sent == 24
    # All buffer bytes were freed (enqueue charge == tx_done release).
    assert switch._outputs[1].queued_bytes == 0
    assert switch.total_dropped() == 0
