"""Scheduler-layer tests: exact order against a model, and edge cases.

Both schedulers honour the unique ``(time, priority, seq)`` total order.
A hypothesis-driven property test drives the reference heap through
engine-shaped push/cancel/pop scripts against a model of the live set.
The ``scheduler`` entries of the pair registry (``test_pairs.py``) run
the same scripts on the compiled backend, and the seeded stress test
here runs long ones, demanding the exact same pop sequence — that
equivalence is what keeps the figure CSVs byte-identical with or
without the extension.

Edge cases run on both backends: ``native`` is what a Simulator takes
(the compiled heap when it is built), ``heap`` forces the reference by
hiding the extension.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import sched as sched_module
from repro.sim.engine import Simulator
from repro.sim.sched import HeapScheduler, make_scheduler, native_available

KINDS = ["native", "heap"]


def _use(kind, monkeypatch):
    """Make new schedulers and Simulators take ``kind``."""
    if kind == "heap":
        monkeypatch.setattr(sched_module, "_csched", None)


# -- differential property test ---------------------------------------------

#: a few coarse delays so equal-time ties (and delay-0 pushes) abound
_DELAYS = (0.0, 0.0, 1e-6, 1e-6, 1e-3, 1.0)

_op = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(_DELAYS), st.integers(0, 1)),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("cancel-head")),
    st.tuples(st.just("pop")),
)

_script = st.tuples(
    # seq base: from zero, and straddling 2**63 (the signed 64-bit edge)
    st.sampled_from((0, (1 << 63) - 8, (1 << 63) - 1)),
    st.lists(_op, max_size=120),
)


def _drive(sched, base: int, ops) -> list[tuple]:
    """Run one script; returns the ``(when, prio, seq)`` pop sequence.

    Mirrors the engine's use of the contract: popped entries are
    detached (``entry[3] = None``) so a later cancel of them is a stale
    no-op.  A model of the live keys checks ``len()`` after every op
    and that each pop is the minimum live key.
    """
    handles: list[list] = []
    live: set[tuple] = set()
    popped: list[tuple] = []
    now = 0.0

    def pop_one():
        nonlocal now
        entry = sched.pop()
        if entry is None:
            assert not live
            return None
        key = (entry[0], entry[1], entry[2])
        assert key == min(live)
        live.discard(key)
        entry[3] = None  # detach, as the run loop does
        now = entry[0]
        popped.append(key)
        return entry

    for op in ops:
        if op[0] == "push":
            seq = base + len(handles)
            key = (now + op[1], op[2], seq)
            handles.append(sched.push(*key, object()))
            live.add(key)
        elif op[0] == "cancel":
            if handles:
                # already popped or cancelled targets exercise the
                # repeated-cancel no-op
                entry = handles[op[1] % len(handles)]
                sched.cancel(entry)
                live.discard((entry[0], entry[1], entry[2]))
        elif op[0] == "cancel-head":
            if live:
                head = min(live)
                sched.cancel(handles[head[2] - base])
                live.discard(head)
        else:
            pop_one()
        assert len(sched) == len(live)
    while pop_one() is not None:
        pass
    assert len(sched) == 0
    return popped


@settings(max_examples=150, deadline=None)
@given(_script)
def test_native_fallback_pop_parity(script):
    """The heap fallback pops the exact minimum after every op (so pops
    are monotone in ``(when, prio, seq)`` between pushes, and in time
    throughout) and keeps ``len()`` equal to the live count."""
    base, ops = script
    reference = _drive(HeapScheduler(), base, ops)
    assert all(a[0] <= b[0] for a, b in zip(reference, reference[1:]))


def _seeded_script(rng: Random, n: int) -> list[tuple]:
    """A long engine-shaped op mix in ``_drive``'s op format: timed
    pushes across magnitudes, timer churn out to long sleeps, delay-0
    bursts, cancels and interleaved pops."""
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.30:
            ops.append(("push", rng.choice((1e-6, 1e-4, 1e-2)) * rng.random(), rng.randint(0, 1)))
        elif r < 0.60:
            ops.append(("push", rng.choice((1e-6, 1e-3, 1.0, 300.0)) * rng.random(), 1))
        elif r < 0.72:
            ops.append(("push", 0.0, rng.randint(0, 1)))
        elif r < 0.84:
            ops.append(("cancel", rng.randrange(1 << 30)))
        else:
            ops.append(("pop",))
    return ops


@pytest.mark.parametrize("kind", ["native"])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_randomized_stress_matches_heap(kind, seed, monkeypatch):
    """Fixed-seed long scripts (thousands of ops, deep queues) that the
    short hypothesis scripts never reach: the scheduler a Simulator
    takes pops exactly what the reference heap pops."""
    _use(kind, monkeypatch)
    ops = _seeded_script(Random(seed), 3000)
    reference = _drive(HeapScheduler(), 0, ops)
    assert _drive(make_scheduler(), 0, ops) == reference
    # Pop times never go backwards (the run-loop invariant).
    assert all(a[0] <= b[0] for a, b in zip(reference, reference[1:]))


# -- targeted edge cases ----------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_repeated_cancel_is_a_no_op(kind, monkeypatch):
    """Cancelling a tombstone (twice-cancelled, or detached at dispatch)
    must not touch the live count or the cancel counter."""
    _use(kind, monkeypatch)
    sched = make_scheduler()
    entry = sched.push(1.0, 1, 0, "a")
    sched.cancel(entry)
    sched.cancel(entry)
    sched.push(2.0, 1, 1, "b")
    assert len(sched) == 1
    assert sched.stats()["cancels"] == 1
    popped = sched.pop()
    assert popped[3] == "b"
    popped[3] = None  # the run loop's detach
    sched.cancel(popped)
    assert len(sched) == 0
    assert sched.stats()["cancels"] == 1
    assert sched.pop() is None


@pytest.mark.parametrize("kind", KINDS)
def test_timeout_cancelled_at_its_own_fire_time(kind, monkeypatch):
    """A cancel that runs at the timeout's exact fire time (earlier seq,
    same time) must win: the victim never fires."""
    _use(kind, monkeypatch)
    sim = Simulator()
    fired = []
    outcome = []
    canceller = sim.timeout(1.0)  # created first => earlier seq
    victim = sim.timeout(1.0, "victim")
    victim.add_callback(lambda e: fired.append(e.value))
    canceller.add_callback(lambda e: outcome.append(sim.cancel(victim)))
    sim.run()
    assert outcome == [True]
    assert fired == []
    assert sim.now == 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_seq_shields_payloads_from_comparison(kind, monkeypatch):
    """Entries never compare beyond seq: same (time, prio) with
    non-orderable payloads must pop cleanly in seq order."""
    _use(kind, monkeypatch)
    sched = make_scheduler()
    for seq in range(32):
        sched.push(0.5, 1, seq, object())  # object() is not orderable
    got = [sched.pop()[2] for _ in range(32)]
    assert got == list(range(32))


@pytest.mark.parametrize("kind", KINDS)
def test_seq_counter_never_wraps_discipline(kind, monkeypatch):
    """The engine's seq source is an unbounded monotone count — huge
    values keep ordering exact (no 32/64-bit wrap discipline needed;
    the compiled backend covers the full unsigned 64-bit range)."""
    _use(kind, monkeypatch)
    sched = make_scheduler()
    lo, hi = (1 << 63) - 1, 1 << 63
    sched.push(0.25, 1, hi, "second")
    sched.push(0.25, 1, lo, "first")
    assert [sched.pop()[3] for _ in range(2)] == ["first", "second"]
    sim = Simulator()
    assert next(sim._seq) == 0  # fresh count per simulator, never reset


def test_cancel_callback_is_exact_and_stale_safe():
    sim = Simulator()
    calls = []
    handle = sim.call_after(1.0, calls.append, "cancelled")
    keep = sim.call_after(2.0, calls.append, "kept")
    assert sim.cancel_callback(handle) is True
    assert sim.cancel_callback(handle) is False  # double-cancel: no-op
    sim.run()
    assert calls == ["kept"]
    assert sim.cancel_callback(keep) is False  # already fired: no-op


def test_native_kind_always_constructible(monkeypatch):
    """A Simulator builds with or without the compiled extension;
    sched_stats() says which implementation is live."""
    assert Simulator().sched_stats()["compiled"] is native_available()

    monkeypatch.setattr(sched_module, "_csched", None)
    forced = make_scheduler()
    assert type(forced) is HeapScheduler
    assert forced.compiled is False
    assert Simulator().sched_stats() == forced.stats()


def test_small_cluster_identical_under_all_schedulers(monkeypatch):
    """End-to-end: a tiny sort run (timers, stores, bus transfers, the
    switch) produces the identical schedule on either backend."""
    from repro.bench.sweep import _RUNNERS

    results = {}
    for kind in KINDS:
        _use(kind, monkeypatch)
        r = _RUNNERS["sort-des"]({"e_init": 1 << 10, "p": 2, "seed": 2})
        results[kind] = (r["events"], r["makespan"])
    assert len(set(results.values())) == 1, results
