"""Unit tests for frames and wires (repro.net.packet / link)."""

import pytest

from repro.errors import LinkError, PacketError
from repro.net import (
    ETHERNET_OVERHEAD,
    Frame,
    IP_TCP_HEADERS,
    MIN_FRAME_PAYLOAD,
    MacAddress,
    Wire,
    wire_bytes,
)
from repro.sim import Simulator

A = MacAddress(0)
B = MacAddress(1)


class Collector:
    def __init__(self, sim):
        self.sim = sim
        self.got = []

    def receive_frame(self, frame):
        self.got.append((frame, self.sim.now))


# --- wire_bytes / Frame -----------------------------------------------------------
def test_wire_bytes_adds_overheads():
    assert wire_bytes(1500, IP_TCP_HEADERS) == 1500 + ETHERNET_OVERHEAD + 40


def test_wire_bytes_pads_tiny_payloads():
    assert wire_bytes(1, 0) == MIN_FRAME_PAYLOAD + ETHERNET_OVERHEAD


def test_wire_bytes_multi_frame_quantum():
    one = wire_bytes(1500, 40, frame_count=1)
    ten = wire_bytes(15000, 40, frame_count=10)
    assert ten == 10 * one


def test_frame_wire_size():
    f = Frame(A, B, payload_bytes=1000, headers=40)
    assert f.wire_size == 1000 + ETHERNET_OVERHEAD + 40


def test_frame_validation():
    with pytest.raises(PacketError):
        Frame(A, B, payload_bytes=-1)
    with pytest.raises(PacketError):
        Frame(A, B, payload_bytes=10, frame_count=0)
    with pytest.raises(PacketError):
        Frame(A, B, payload_bytes=10, headers=-1)


def test_frame_validation_messages():
    """Each invalid geometry keeps its message; checks run payload,
    then frame count, then headers."""
    cases = [
        ({"payload_bytes": -1}, "negative payload -1"),
        ({"payload_bytes": 10, "frame_count": 0}, "frame_count must be >= 1, got 0"),
        ({"payload_bytes": 10, "headers": -1}, "negative header size -1"),
        ({"payload_bytes": -5, "frame_count": 0, "headers": -1}, "negative payload -5"),
        ({"payload_bytes": 10, "frame_count": -2, "headers": -1},
         "frame_count must be >= 1, got -2"),
    ]
    for kwargs, message in cases:
        with pytest.raises(PacketError) as err:
            Frame(A, B, **kwargs)
        assert str(err.value) == message


def test_frame_wire_size_matches_wire_bytes():
    for payload in (0, 1, 45, 46, 47, 1500, 1501, 9000, 46.0, 100.5):
        for headers in (0, 8, 40):
            for count in (1, 2, 7):
                f = Frame(A, B, payload_bytes=payload, headers=headers,
                          frame_count=count)
                want = wire_bytes(payload, headers, count)
                assert f.wire_size == want
                assert type(f.wire_size) is type(want)


def test_frame_clone_for():
    f = Frame(A, B, payload_bytes=100, kind="tcp", seq=7, meta={"x": 1})
    g = f.clone_for(MacAddress(5))
    assert g.dst == MacAddress(5)
    assert g.seq == 7 and g.kind == "tcp" and g.meta == {"x": 1}
    assert g.uid != f.uid


def test_frame_uids_unique():
    frames = [Frame(A, B, payload_bytes=1) for _ in range(10)]
    assert len({f.uid for f in frames}) == 10


# --- Wire ----------------------------------------------------------------------
def test_wire_delivery_time_serialization_plus_propagation():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1000.0, propagation_delay=0.5)
    sink = Collector(sim)
    wire.attach(sink)
    f = Frame(A, B, payload_bytes=962, headers=0)  # wire_size = 1000
    deliver_at = wire.send(f)
    sim.run()
    assert deliver_at == pytest.approx(1.5)
    assert sink.got[0][1] == pytest.approx(1.5)


def test_wire_serializes_back_to_back_frames():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1000.0, propagation_delay=0.0)
    sink = Collector(sim)
    wire.attach(sink)
    f1 = Frame(A, B, payload_bytes=962, headers=0)
    f2 = Frame(A, B, payload_bytes=962, headers=0)
    wire.send(f1)
    wire.send(f2)
    sim.run()
    times = [t for _, t in sink.got]
    assert times == [pytest.approx(1.0), pytest.approx(2.0)]


def test_wire_requires_sink():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1000.0)
    with pytest.raises(LinkError):
        wire.send(Frame(A, B, payload_bytes=10))


def test_wire_double_attach_rejected():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1000.0)
    sink = Collector(sim)
    wire.attach(sink)
    with pytest.raises(LinkError):
        wire.attach(sink)


def test_wire_stats_and_utilization():
    sim = Simulator()
    wire = Wire(sim, bandwidth=1000.0)
    sink = Collector(sim)
    wire.attach(sink)
    wire.send(Frame(A, B, payload_bytes=962, headers=0))
    sim.run()
    assert wire.frames_sent == 1
    assert wire.bytes_sent == pytest.approx(1000)
    assert wire.utilization(2.0) == pytest.approx(0.5)


def test_wire_invalid_parameters():
    sim = Simulator()
    with pytest.raises(LinkError):
        Wire(sim, bandwidth=0)
    with pytest.raises(LinkError):
        Wire(sim, bandwidth=100, propagation_delay=-1)
