"""Integration tests: cluster builder, SimMPI, collectives, app harness."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    ParallelApp,
    allgather,
    allreduce,
    alltoall,
    barrier,
    bcast,
)
from repro.inic import ACEII_PROTOTYPE, IDEAL_INIC
from repro.net import FAST_ETHERNET


def tcp_cluster(n, **kw):
    return Cluster.build(ClusterSpec(n_nodes=n, **kw))


def test_build_standard_cluster():
    c = tcp_cluster(4)
    assert c.size == 4
    for node in c.nodes:
        assert node.nic is not None and node.tcp is not None and node.inic is None


def test_build_inic_cluster():
    c = Cluster.build(ClusterSpec(n_nodes=4, inic=IDEAL_INIC))
    for node in c.nodes:
        assert node.inic is not None and node.nic is None
    c2 = Cluster.build(ClusterSpec(n_nodes=2, inic=ACEII_PROTOTYPE))
    assert c2.nodes[0].inic.spec.name == "aceii-prototype"


def test_point_to_point_over_app_harness():
    c = tcp_cluster(2)
    app = ParallelApp(c)

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.send(1, 10_000, payload="hi", tag=1)
            return "sent"
        msg = yield ctx.recv(src=0, tag=1)
        return msg.payload

    result = app.run(program)
    assert result.rank_results == ["sent", "hi"]
    assert result.makespan > 0


def test_self_send_costs_memcpy_not_network():
    c = tcp_cluster(2)
    app = ParallelApp(c)

    def program(ctx):
        if ctx.rank == 0:
            yield ctx.send(0, 1_000_000, payload="self", tag=9)
            msg = yield ctx.recv(src=0, tag=9)
            return msg.payload
        return None
        yield

    result = app.run(program)
    assert result.rank_results[0] == "self"
    assert c.nodes[0].nic.stats.tx_frames == 0


def test_barrier_synchronizes():
    c = tcp_cluster(4)
    app = ParallelApp(c)
    after = {}

    def program(ctx):
        # Stagger arrival; everyone must leave after the last arriver.
        yield ctx.sim.timeout(0.01 * ctx.rank)
        yield from barrier(ctx)
        after[ctx.rank] = ctx.sim.now
        return None

    app.run(program)
    assert min(after.values()) >= 0.03


def test_bcast_reaches_all():
    c = tcp_cluster(5)
    app = ParallelApp(c)
    data = np.arange(100, dtype=np.int64)

    def program(ctx):
        got = yield from bcast(
            ctx, data if ctx.rank == 2 else None, data.nbytes, root=2
        )
        return got.sum()

    result = app.run(program)
    assert result.rank_results == [data.sum()] * 5


def test_allgather_collects_everything():
    c = tcp_cluster(4)
    app = ParallelApp(c)

    def program(ctx):
        mine = np.full(10, ctx.rank)
        gathered = yield from allgather(ctx, mine, mine.nbytes)
        return [int(g[0]) for g in gathered]

    result = app.run(program)
    for r in range(4):
        assert result.rank_results[r] == [0, 1, 2, 3]


def test_alltoall_personalized_exchange():
    p = 4
    c = tcp_cluster(p)
    app = ParallelApp(c)

    def program(ctx):
        blocks = [
            (800, np.full(100, 10 * ctx.rank + dst)) for dst in range(p)
        ]
        got = yield from alltoall(ctx, blocks)
        return [int(g[0]) for g in got]

    result = app.run(program)
    for r in range(p):
        assert result.rank_results[r] == [10 * src + r for src in range(p)]


def test_allreduce_sums():
    c = tcp_cluster(4)
    app = ParallelApp(c)

    def program(ctx):
        contrib = np.full(50, float(ctx.rank + 1))
        total = yield from allreduce(ctx, contrib)
        return float(total[0])

    result = app.run(program)
    assert result.rank_results == [10.0] * 4


def test_no_switch_drops_in_balanced_alltoall():
    """A paper-scale alltoall must not overrun GigE switch buffers."""
    p = 8
    c = tcp_cluster(p)
    app = ParallelApp(c)
    block_bytes = 64 * 1024  # 512 KiB partition / 8

    def program(ctx):
        blocks = [(block_bytes, None) for _ in range(p)]
        yield from alltoall(ctx, blocks)
        return None

    app.run(program)
    assert c.switch.total_dropped() == 0
    assert c.nodes[0].tcp.stats.timeouts == 0


def test_fast_ethernet_cluster_slower_than_gige():
    times = {}
    for name, tech in (("fe", FAST_ETHERNET), ("ge", None)):
        c = (
            tcp_cluster(4, network=tech)
            if tech is not None
            else tcp_cluster(4)
        )
        app = ParallelApp(c)

        def program(ctx):
            blocks = [(100_000, None) for _ in range(4)]
            yield from alltoall(ctx, blocks)
            return None

        times[name] = app.run(program).makespan
    assert times["fe"] > 3 * times["ge"]


def test_app_result_contains_rank_times():
    c = tcp_cluster(3)
    app = ParallelApp(c)

    def program(ctx):
        yield ctx.sim.timeout(0.001 * (ctx.rank + 1))
        return ctx.rank

    result = app.run(program)
    assert result.rank_results == [0, 1, 2]
    assert result.makespan == pytest.approx(0.003)
    assert result.rank_times[0] == pytest.approx(0.001)


def test_invalid_cluster_spec():
    with pytest.raises(ValueError):
        ClusterSpec(n_nodes=0)
