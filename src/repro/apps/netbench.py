"""Network microbenchmarks: latency and bandwidth, TCP vs INIC protocol.

The paper's Section-4 protocol argument in its rawest form: the same
two nodes, the same Gigabit wire, measured with a netperf-style
request/response (latency) and a streaming (bandwidth) test under

* the host TCP stack (with interrupt mitigation and per-packet costs),
* the INIC protocol-processor mode ("all of the protocol processing
  for a node ... higher bandwidth, and lower latency").

These feed the protocol-overhead benches and give downstream users a
calibration tool for their own cluster configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.app import ParallelApp
from ..cluster.builder import Cluster, ClusterSpec
from ..core.api import Experiment
from ..core.design import protocol_processor_design
from ..core.manager import INICManager
from ..errors import ApplicationError
from ..inic.card import CardSpec, IDEAL_INIC
from ..net.addresses import MacAddress
from ..net.fabric import NetworkTechnology, GIGABIT_ETHERNET

__all__ = [
    "NetBenchResult",
    "tcp_pingpong",
    "tcp_stream",
    "inic_pingpong",
    "inic_stream",
]


@dataclass(frozen=True)
class NetBenchResult:
    """One microbenchmark outcome."""

    label: str
    nbytes: int
    repetitions: int
    total_time: float

    @property
    def latency(self) -> float:
        """One-way latency per message (half the round trip)."""
        return self.total_time / (2 * self.repetitions)

    @property
    def bandwidth(self) -> float:
        """Payload bytes per second."""
        return self.nbytes * self.repetitions / self.total_time


def _check(nbytes: int, repetitions: int) -> None:
    if nbytes < 1 or repetitions < 1:
        raise ApplicationError("netbench needs positive size and repetitions")


def tcp_pingpong(
    nbytes: int = 64,
    repetitions: int = 20,
    network: NetworkTechnology = GIGABIT_ETHERNET,
) -> NetBenchResult:
    """Request/response over the host TCP stack."""
    _check(nbytes, repetitions)
    cluster = Cluster.build(ClusterSpec(n_nodes=2, network=network))
    app = ParallelApp(cluster)

    def program(ctx):
        for i in range(repetitions):
            if ctx.rank == 0:
                yield ctx.send(1, nbytes, tag=i)
                yield ctx.recv(src=1, tag=i)
            else:
                yield ctx.recv(src=0, tag=i)
                yield ctx.send(0, nbytes, tag=i)
        return None

    res = app.run(program)
    return NetBenchResult("tcp-pingpong", nbytes, repetitions, res.makespan)


def tcp_stream(
    nbytes: int = 1 << 20,
    repetitions: int = 4,
    network: NetworkTechnology = GIGABIT_ETHERNET,
) -> NetBenchResult:
    """One-way bulk transfer over the host TCP stack."""
    _check(nbytes, repetitions)
    cluster = Cluster.build(ClusterSpec(n_nodes=2, network=network))
    app = ParallelApp(cluster)

    def program(ctx):
        for i in range(repetitions):
            if ctx.rank == 0:
                yield ctx.send(1, nbytes, tag=i)
            else:
                yield ctx.recv(src=0, tag=i)
        return None

    res = app.run(program)
    return NetBenchResult("tcp-stream", nbytes, repetitions, res.makespan)


def _acc_pair(card: CardSpec) -> tuple:
    session = Experiment().nodes(2).card(card).build()
    session.manager.configure_all(protocol_processor_design)
    return session.cluster, session.manager


def inic_pingpong(
    nbytes: int = 64, repetitions: int = 20, card: CardSpec = IDEAL_INIC
) -> NetBenchResult:
    """Request/response through INIC protocol-processor mode."""
    _check(nbytes, repetitions)
    cluster, manager = _acc_pair(card)
    sim = cluster.sim
    t0 = sim.now

    def node(rank: int):
        driver = manager.driver(rank)
        peer = MacAddress(1 - rank)
        for i in range(repetitions):
            if rank == 0:
                yield from driver.send_message(peer, nbytes, tag=2 * i)
                yield from driver.recv_message(peer, nbytes, tag=2 * i + 1)
            else:
                yield from driver.recv_message(peer, nbytes, tag=2 * i)
                yield from driver.send_message(peer, nbytes, tag=2 * i + 1)

    procs = [sim.process(node(r)) for r in (0, 1)]
    sim.run(until=sim.all_of(procs))
    return NetBenchResult("inic-pingpong", nbytes, repetitions, sim.now - t0)


def inic_stream(
    nbytes: int = 1 << 20, repetitions: int = 4, card: CardSpec = IDEAL_INIC
) -> NetBenchResult:
    """One-way bulk transfer through INIC protocol-processor mode."""
    _check(nbytes, repetitions)
    cluster, manager = _acc_pair(card)
    sim = cluster.sim
    t0 = sim.now

    def sender():
        driver = manager.driver(0)
        for i in range(repetitions):
            yield from driver.send_message(MacAddress(1), nbytes, tag=i)

    def receiver():
        driver = manager.driver(1)
        for i in range(repetitions):
            yield from driver.recv_message(MacAddress(0), nbytes, tag=i)

    procs = [sim.process(sender()), sim.process(receiver())]
    sim.run(until=sim.all_of(procs))
    return NetBenchResult("inic-stream", nbytes, repetitions, sim.now - t0)
