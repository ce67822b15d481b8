"""Tests for the SimMPI layer: library costs, eager/rendezvous split."""

import pytest

from repro.cluster import Cluster, ClusterSpec, Communicator, MPIConfig, ParallelApp
from repro.errors import ApplicationError, ProtocolError
from repro.sim import Process


def run_pingpong(nbytes, mpi_config=None):
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    app = ParallelApp(cluster)
    if mpi_config is not None:
        app.comm = Communicator(cluster, mpi_config)

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, nbytes, tag=1)
            yield ctx.recv(src=1, tag=2)
        else:
            yield ctx.recv(src=0, tag=1)
            yield ctx.send(0, nbytes, tag=2)
        return None

    return app.run(program).makespan


def test_rendezvous_adds_round_trip_above_eager_limit():
    """Crossing the 64 KiB eager limit pays an RTS/CTS handshake: the
    per-byte cost jumps discontinuously at the threshold."""
    below = run_pingpong(63 * 1024)
    above = run_pingpong(66 * 1024)
    # 3 KiB more payload but a whole extra round trip.
    wire_time_delta = 2 * (3 * 1024) / 125e6
    assert above - below > 3 * wire_time_delta


def test_eager_limit_configurable():
    small_eager = MPIConfig(eager_limit=1024)
    t_rdv = run_pingpong(32 * 1024, small_eager)
    t_eager = run_pingpong(32 * 1024)  # default 64 KiB limit: eager
    assert t_rdv > t_eager


def test_send_recv_costs_charged_to_cpu():
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    app = ParallelApp(cluster)

    def program(ctx):
        if ctx.rank == 0:
            for i in range(10):
                yield ctx.send(1, 1000, tag=i)
        else:
            for i in range(10):
                yield ctx.recv(src=0, tag=i)
        return None

    app.run(program)
    sender_cpu = cluster.nodes[0].cpu
    # 10 sends x 80us MPI send cost, at minimum.
    assert sender_cpu.busy_time >= 10 * 80e-6


def test_mpi_config_validation():
    with pytest.raises(ApplicationError):
        MPIConfig(send_cost=-1)
    with pytest.raises(ApplicationError):
        MPIConfig(eager_limit=0)


def test_bad_destination_rank():
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    app = ParallelApp(cluster)

    def program(ctx):
        if ctx.rank == 0:
            ctx.send(5, 100)
        return None
        yield

    with pytest.raises(ApplicationError):
        app.run(program)


def test_concurrent_rendezvous_sends_do_not_cross_match():
    """Two large messages in flight between the same pair: tokens keep
    the CTS replies straight."""
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    app = ParallelApp(cluster)
    nbytes = 128 * 1024

    def program(ctx):
        if ctx.rank == 0:
            e1 = ctx.send(1, nbytes, payload="first", tag=1)
            e2 = ctx.send(1, nbytes, payload="second", tag=2)
            yield e1
            yield e2
            return None
        m1 = yield ctx.recv(src=0, tag=1)
        m2 = yield ctx.recv(src=0, tag=2)
        return (m1.payload, m2.payload)

    result = app.run(program)
    assert result.rank_results[1] == ("first", "second")


def test_send_returns_the_send_process():
    """``send`` (and a self-send) hands back the process doing the send:
    it is the completion event, with value ``None``."""
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    app = ParallelApp(cluster)
    seen = []

    def program(ctx):
        if ctx.rank == 0:
            for ev in (ctx.send(1, 1000, tag=1), ctx.send(0, 1000, tag=2)):
                seen.append(isinstance(ev, Process))
                seen.append((yield ev))
            yield ctx.recv(src=0, tag=2)
        else:
            yield ctx.recv(src=0, tag=1)
        return None

    app.run(program)
    assert seen == [True, None, True, None]


def test_failing_send_reaches_its_waiter():
    """An error inside a send is thrown into the rank waiting on it, not
    out of the event loop."""
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    app = ParallelApp(cluster)

    def program(ctx):
        if ctx.rank == 0:
            try:
                yield ctx.send(1, 0)  # TCP refuses an empty message
            except ProtocolError as exc:
                return str(exc)
        return None
        yield

    result = app.run(program)
    assert result.rank_results[0] == "cannot send 0 bytes"


def test_recv_of_arrived_message_charges_match_cost_once():
    """A receive posted after its message arrived resolves inline (the
    event comes back processed) and steals the MPI match cost exactly
    once."""
    cfg = MPIConfig(recv_match_cost=1e-3)
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    app = ParallelApp(cluster)
    app.comm = Communicator(cluster, cfg)
    seen = []

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.send(0, 100, tag=5)  # self-send: delivered when done
            ev = ctx.recv(src=0, tag=5)
            seen.append(ev.processed)
            msg = yield ev
            seen.append(msg.nbytes)
        return None

    app.run(program)
    assert seen == [True, 100]
    assert cluster.nodes[0].cpu.interrupt_time == cfg.recv_match_cost
