"""Tests for the INIC protocol policy layer (inicproto) and card memory."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, OffloadError, ProtocolError
from repro.inic import IDEAL_INIC, Design, INICCard
from repro.inic.cores import FIFOCore
from repro.net import MacAddress
from repro.protocols import INICProtoConfig, TransferPlan
from repro.sim import Simulator


# --- INICProtoConfig ------------------------------------------------------------
def test_default_packet_size_is_papers_1024():
    cfg = INICProtoConfig()
    assert cfg.packet_size == 1024
    assert cfg.headers < 40  # minimal vs TCP/IP's 40


def test_invalid_proto_config():
    with pytest.raises(ProtocolError):
        INICProtoConfig(packet_size=0)
    with pytest.raises(ProtocolError):
        INICProtoConfig(headers=-1)


# --- TransferPlan ------------------------------------------------------------------
def test_plan_completes_when_all_received():
    sim = Simulator()
    plan = TransferPlan(sim, {0: 100, 1: 50})
    assert not plan.complete.triggered
    plan.account(MacAddress(0), 100)
    assert not plan.complete.triggered
    plan.account(MacAddress(1), 30)
    plan.account(MacAddress(1), 20)
    assert plan.complete.triggered
    assert plan.total_received() == 150


def test_plan_partial_accounting():
    sim = Simulator()
    plan = TransferPlan(sim, {3: 1000})
    plan.account(MacAddress(3), 400)
    assert plan.received[3] == 400
    assert plan.total_expected() == 1000


def test_plan_rejects_unknown_sender():
    sim = Simulator()
    plan = TransferPlan(sim, {0: 10})
    with pytest.raises(ProtocolError):
        plan.account(MacAddress(5), 10)


def test_plan_rejects_overflow():
    sim = Simulator()
    plan = TransferPlan(sim, {0: 10})
    with pytest.raises(ProtocolError):
        plan.account(MacAddress(0), 11)


def test_empty_plan_completes_immediately():
    sim = Simulator()
    plan = TransferPlan(sim, {})
    assert plan.complete.triggered
    # Peers that owe nothing are complete from the start.
    plan = TransferPlan(sim, {0: 0, 1: 0})
    assert plan.complete.triggered
    assert plan.received == {0: 0, 1: 0} and plan.total_received() == 0
    plan = TransferPlan(sim, {0: 0, 1: 8})
    assert not plan.complete.triggered
    plan.account(MacAddress(1), 8)
    assert plan.complete.triggered


def test_plan_rejects_negative_expectation():
    sim = Simulator()
    with pytest.raises(ProtocolError):
        TransferPlan(sim, {0: -5})
    with pytest.raises(ProtocolError, match="peer 2"):
        TransferPlan(sim, {0: 4, 1: 0, 2: -1, 3: 4})


# --- card memory ----------------------------------------------------------------------------
def test_memory_touch_time():
    sim = Simulator()
    spec = replace(IDEAL_INIC, memory_bandwidth=200.0)
    card = INICCard(sim, MacAddress(0), spec=spec)

    def proc():
        yield from card.configure(Design("calc", [FIFOCore()], mode="compute"))

    sim.process(proc())
    sim.run()
    # A compute pass over card RAM slower than every core runs at the
    # RAM's bandwidth: 100 B at 200 B/s is half a second.
    assert 100 / card.datapath_rate(spec.memory_bandwidth) == pytest.approx(0.5)
    with pytest.raises(OffloadError):
        card.compute(None, lambda d: d, in_bytes=0, out_bytes=0)
    with pytest.raises(ConfigurationError):
        replace(IDEAL_INIC, memory_bandwidth=-1.0)
