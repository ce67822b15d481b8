"""Same-time tie order (ROADMAP item 1).

The kernel breaks ``(time, priority)`` ties by push order, which is an
accident of the code, not a rule of the modelled hardware.  The private
tiebreak hook (``engine._set_tiebreak_seed``) gives every Simulator
built while it is set sequence numbers with random high bits, so ties
fire in a seeded random order.  A result that does not depend on push
order keeps its makespan to within float reassociation (relative
differences either stay below ~5e-15 or jump past 1e-4, hence the 1e-12
tolerance).
"""

import itertools

import pytest

from repro.bench.harness import Scale
from repro.bench.sweep import _RUNNERS, perf_points
from repro.sim import Simulator, engine

SEEDS = (1, 2, 3)

#: perf points whose makespan still moves with the tie order
_TIE_SENSITIVE = {
    "sort-gige-p4": "ROADMAP item 1: host-TCP sort on the wire star depends "
    "on same-time push order (-1.9% at tiebreak seeds 2 and 3)",
}


def _makespan(spec, seed):
    engine._set_tiebreak_seed(seed)
    try:
        return _RUNNERS[spec.kind](spec.params)["makespan"]
    finally:
        engine._set_tiebreak_seed(None)


def _perf_params():
    for spec in perf_points(Scale.ci()):
        reason = _TIE_SENSITIVE.get(spec.name)
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(spec, id=spec.name, marks=marks)


def test_tiebreak_hook_shuffles_same_time_entries_reproducibly():
    def order(seed):
        engine._set_tiebreak_seed(seed)
        try:
            sim = Simulator()
        finally:
            engine._set_tiebreak_seed(None)
        fired = []
        for k in range(16):
            sim.call_after(0.0, fired.append, k)
        sim.call_after(1.0, fired.append, "later")
        sim.run()
        return fired

    assert order(None) == [*range(16), "later"]
    shuffled = order(7)
    assert shuffled != order(None)
    assert sorted(shuffled[:16]) == list(range(16)) and shuffled[16] == "later"
    assert order(7) == shuffled
    # The default path keeps the plain counter.
    assert type(Simulator()._seq) is itertools.count


@pytest.mark.parametrize("spec", _perf_params())
def test_perf_point_makespan_is_tie_order_invariant(spec):
    fifo = _makespan(spec, None)
    for seed in SEEDS:
        assert _makespan(spec, seed) == pytest.approx(fifo, rel=1e-12, abs=0), seed
