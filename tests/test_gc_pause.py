"""The cyclic collector is paused inside ``Simulator.run``.

The pause is safe only while the event loop creates no reference
cycles: garbage a run leaves in a cycle waits for the next collection
after the run instead of being found mid-run.  These tests pin

* the collector state on every exit path of ``run`` (restored when it
  was on, left off when it was off);
* a census — ``gc.DEBUG_SAVEALL`` around each ``run`` — finding zero
  cyclic garbage for a small point of every datapath;
* that the sweep engine frees each finished cluster between points.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest

from repro.api import (
    ACEII_PROTOTYPE,
    CampaignSpec,
    Environment,
    Experiment,
    campaign_fault_spec,
    fabric_components,
)
from repro.apps.fft import baseline_fft2d, inic_fft2d
from repro.apps.sort import inic_sort
from repro.bench.harness import Scale
from repro.bench.sweep import (
    CHAOS_SUITE_RETRIES,
    CHAOS_SUITE_SEED,
    PointSpec,
    SweepEngine,
    fault_points,
)
from repro.sim import Simulator, SimulationRunaway

from .test_sim_process import _async_inic_stream, _async_tcp_pingpong


@pytest.fixture(autouse=True)
def _restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


# -- collector state on every exit path ---------------------------------------


def _drained(sim):
    sim.timeout(1.0)
    return sim.run()


def _until_float(sim):
    sim.timeout(5.0)
    return sim.run(until=2.0)


def _until_event(sim):
    return sim.run(until=sim.timeout(1.0, value="done"))


def _until_failed_event(sim):
    ev = sim.event()
    sim.call_after(1.0, ev.fail, KeyError("target failed"))
    return sim.run(until=ev)


def _target_never_fires(sim):
    sim.timeout(1.0)
    return sim.run(until=sim.event())


def _runaway(sim):
    def ticker():
        while True:
            yield sim.timeout(1.0)

    sim.process(ticker())
    return sim.run(max_events=10)


def _callback_raises(sim):
    def boom(ev):
        raise ValueError("callback failed")

    sim.timeout(1.0).add_callback(boom)
    return sim.run()


def _unhandled_failure(sim):
    sim.event().fail(OSError("nobody waited"))
    return sim.run()


EXIT_PATHS = [
    (_drained, None),
    (_until_float, None),
    (_until_event, None),
    (_until_failed_event, KeyError),
    (_target_never_fires, RuntimeError),
    (_runaway, SimulationRunaway),
    (_callback_raises, ValueError),
    (_unhandled_failure, OSError),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "path, raises", EXIT_PATHS, ids=[fn.__name__.lstrip("_") for fn, _ in EXIT_PATHS]
)
def test_run_restores_collector_state_on_every_exit_path(path, raises, enabled):
    sim = Simulator()
    inside = []
    sim.call_after(0.0, lambda: inside.append(gc.isenabled()))
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if raises is None:
        path(sim)
    else:
        with pytest.raises(raises):
            path(sim)
    assert inside == [False], "collector not paused while the loop dispatches"
    assert gc.isenabled() is enabled


# -- census: no cyclic garbage created inside any run -----------------------


@pytest.fixture
def census(monkeypatch):
    """Wrap ``Simulator.run`` so each run starts from a collected heap and
    ends with a ``DEBUG_SAVEALL`` collection; yields the type counts of
    every cyclic-garbage object found, and each wrapped run's final
    event count (not the simulator: holding it would keep it alive)."""
    run = Simulator.run
    found: Counter = Counter()
    runs = []

    def counted_run(self, *args, **kwargs):
        gc.collect()
        try:
            return run(self, *args, **kwargs)
        finally:
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                found.update(type(o).__name__ for o in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            runs.append(self.event_count)

    monkeypatch.setattr(Simulator, "run", counted_run)
    gc.enable()
    # Everything alive now (the test process's own heap) moves to the
    # permanent generation, so the census collections only traverse
    # what the point allocates.
    gc.collect()
    gc.freeze()
    try:
        yield found, runs
    finally:
        gc.unfreeze()


def _matrix(rows: int) -> np.ndarray:
    g = np.random.default_rng(2)
    return g.standard_normal((rows, rows)) + 1j * g.standard_normal((rows, rows))


def _keys(n: int) -> np.ndarray:
    return np.random.default_rng(2).integers(0, 2**32, size=n, dtype=np.uint32)


def _tcp_fft_aggregate():
    session = Experiment().nodes(8).fabric("aggregate").build()
    baseline_fft2d(session.cluster, _matrix(32))


def _inic_sort_fattree_fastpath():
    session = (
        Experiment()
        .nodes(16)
        .card(ACEII_PROTOTYPE)
        .fabric("fattree")
        .fastpath(True)
        .build()
    )
    inic_sort(session.cluster, session.manager, _keys(1 << 12))
    assert session.cluster.switch.trains_fast > 0


def _prototype_fft_wire_star():
    session = Experiment().nodes(4).card(ACEII_PROTOTYPE).build()
    inic_fft2d(session.cluster, session.manager, _matrix(32))


def _sweep(specs):
    out = SweepEngine(jobs=1, cache_dir=None).run(specs)
    return {name: r.value for name, r in out.items()}


def _fault_points():
    # lossy wire star, FPGA-failure fallback, lossy float-clock fabrics,
    # and (at 30% loss) a transfer that exhausts its retries and aborts
    scale = Scale(
        name="tiny",
        fft_sizes=(16,),
        fft_procs=(1,),
        sort_keys=1 << 12,
        sort_procs=(1, 2, 4),
        loss_rates=(0.1, 0.3),
    )
    values = _sweep(fault_points(scale))
    assert sum(v["faults"]["nacks_sent"] for v in values.values()) > 0
    assert any(v["fallbacks"] for v in values.values())
    assert any(v["aborted"] for v in values.values())


def _chaos_campaign_point():
    campaign = CampaignSpec(
        seed=CHAOS_SUITE_SEED,
        horizon=1e-3,
        failure_rate=4000.0,
        mttr=2e-4,
        min_outage=1e-4,
        max_failures=2,
        detection_delay=5e-5,
    )
    faults = campaign_fault_spec(campaign, fabric_components("fattree", 16))
    params = {
        "e_init": 1 << 12,
        "p": 16,
        "card": "aceii-prototype",
        "seed": 2,
        "fabric": "fattree",
        "faults": faults.to_params(),
        "retries": CHAOS_SUITE_RETRIES,
    }
    (value,) = _sweep([PointSpec("sort-des", "chaos", params)]).values()
    assert value["faults"]["components"]["reroutes"] > 0
    assert value["faults"]["retransmits"] > 0


def _coroutine_twins():
    # the async ports of a host-TCP ping-pong and an INIC stream, and an
    # Environment-authored hand-off through a Store
    _async_tcp_pingpong(64, [])
    _async_inic_stream(1 << 14, [])

    env = Environment()
    store = env.store()

    async def producer():
        await env.timeout(1.0)
        await store.put("ready")

    async def consumer():
        env.process(producer())
        assert await store.get() == "ready"

    env.run(until=env.process(consumer()))


DATAPATHS = [
    _tcp_fft_aggregate,
    _inic_sort_fattree_fastpath,
    _prototype_fft_wire_star,
    _fault_points,
    _chaos_campaign_point,
    _coroutine_twins,
]


@pytest.mark.parametrize(
    "point", DATAPATHS, ids=[fn.__name__.lstrip("_") for fn in DATAPATHS]
)
def test_runs_create_no_cyclic_garbage(census, point):
    found, runs = census
    point()
    assert runs, "the point never entered Simulator.run"
    assert not found, f"cyclic garbage created inside Simulator.run: {dict(found)}"


# -- sweep engine frees finished clusters ---------------------------------------


def test_serial_sweep_leaves_no_simulator_alive():
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, Simulator)}
    specs = [
        PointSpec(
            "sort-des",
            f"sort-p{p}-{card}",
            {"e_init": 1 << 10, "p": p, "card": card, "seed": 2},
        )
        for p, card in ((2, None), (4, None), (4, "aceii-prototype"))
    ]
    SweepEngine(jobs=1, cache_dir=None).run(specs)
    alive = [
        o for o in gc.get_objects() if isinstance(o, Simulator) and id(o) not in before
    ]
    assert alive == []
