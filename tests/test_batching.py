"""Frame-train batching (DESIGN.md §7, docs/performance.md).

Senders batch at the source: :func:`choose_quantum` and
:func:`adaptive_quantum` size a train from the module's constants, and
the fabric forwards each ``frame_count``-weighted frame as it arrived.
Batched runs are deterministic: two identical runs produce identical
delivery schedules and event counts.
"""

import pytest

from repro.errors import PacketError
from repro.net import (
    Frame,
    MacAddress,
    Switch,
    Wire,
    adaptive_quantum,
    choose_quantum,
)
from repro.net.batching import MAX_TRAIN, TARGET_EVENTS, TIMING_TOLERANCE
from repro.net.packet import ETHERNET_MTU
from repro.sim import Simulator

MTU = ETHERNET_MTU


# -- choose_quantum arithmetic ------------------------------------------------------


def test_choose_quantum_small_transfers_are_per_frame():
    assert TARGET_EVENTS == 48
    assert choose_quantum(10, max_quantum=64) == 1
    assert choose_quantum(TARGET_EVENTS, max_quantum=64) == 1


def test_choose_quantum_scales_and_caps():
    assert choose_quantum(480, max_quantum=64) == 10
    assert choose_quantum(481, max_quantum=64) == 11  # rounds up
    assert choose_quantum(10**6, max_quantum=32) == 32
    # a cap of 1 is the per-frame rule
    assert choose_quantum(10**6, max_quantum=1) == 1


def test_choose_quantum_validation():
    with pytest.raises(PacketError):
        choose_quantum(-1, max_quantum=16)
    with pytest.raises(PacketError):
        choose_quantum(10, max_quantum=0)


# -- adaptive_quantum arithmetic ----------------------------------------------------


def test_adaptive_quantum_tolerance_bound():
    assert TIMING_TOLERANCE == 200e-6
    # (q - 1) * unit_time <= tolerance  ->  q = 1 + 20 at 10 us/frame
    assert adaptive_quantum(1000, 10e-6) == 21
    # the bound adapts to the wire: slower frames, smaller quantum
    assert adaptive_quantum(1000, 50e-6) == 5
    assert adaptive_quantum(1000, 150e-6) == 2


def test_adaptive_quantum_caps():
    assert MAX_TRAIN == 256
    assert adaptive_quantum(1000, 0.1e-6) == MAX_TRAIN  # hard cap
    assert adaptive_quantum(7, 10e-6) == 7  # never exceeds total
    assert adaptive_quantum(1, 10e-6) == 1
    assert adaptive_quantum(0, 10e-6) == 1


def test_adaptive_quantum_disabled_and_errors():
    # An unknown wire rate (0) disables the tolerance bound: only the
    # hard cap and the unit count apply.
    assert adaptive_quantum(1000, 0.0) == MAX_TRAIN
    assert adaptive_quantum(100, 0.0) == 100
    with pytest.raises(PacketError):
        adaptive_quantum(-1, 10e-6)


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
    # The port merges nothing: trains sized at the source by the
    # tolerance rule on the 125 MB/s ingress wire (12 us per frame)
    # reach the sink no larger than that quantum.
    quantum = adaptive_quantum(24, MTU / 125e6)
    assert quantum == 17
    _, col, down, switch = _run_switch_burst(quantum)
    assert [count for _, _, count, _ in col.deliveries] == [17, 7]
    assert sum(count for _, _, count, _ in col.deliveries) == 24
    assert down.frames_sent == 24
    # All buffer bytes were freed (enqueue charge == tx_done release).
    assert switch._outputs[1].queued_bytes == 0
    assert switch.total_dropped() == 0
