"""Unit tests for the CPU and interrupt-controller models."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hw import (
    CPU,
    CacheLevel,
    CoalescePolicy,
    InterruptController,
    MemoryHierarchy,
)
from repro.sim import Simulator
from repro.sim.engine import set_trace_sink


def make_cpu(sim, **kw):
    mh = MemoryHierarchy(
        [
            CacheLevel("L1", 64 * 1024, 8e9, 4e9),
            CacheLevel("DRAM", float("inf"), 0.6e9, 0.12e9),
        ]
    )
    return CPU(sim, mh, **kw)


# --- CPU ------------------------------------------------------------------------
def test_busy_takes_requested_time():
    sim = Simulator()
    cpu = make_cpu(sim)

    def proc():
        yield from cpu.busy(0.25)
        return sim.now

    p = sim.process(proc())
    assert sim.run(until=p) == pytest.approx(0.25)


def test_busy_serializes_on_single_core():
    sim = Simulator()
    cpu = make_cpu(sim)
    ends = []

    def proc(tag):
        yield from cpu.busy(1.0)
        ends.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert ends == [("a", 1.0), ("b", 2.0)]


def test_interrupt_theft_extends_running_task():
    sim = Simulator()
    cpu = make_cpu(sim, interrupt_cost=0.01)

    def thief():
        yield sim.timeout(0.5)
        cpu.charge_interrupt(10)  # 0.1s stolen mid-task

    def worker():
        yield from cpu.busy(1.0)
        return sim.now

    sim.process(thief())
    p = sim.process(worker())
    assert sim.run(until=p) == pytest.approx(1.1)
    assert cpu.interrupt_time == pytest.approx(0.1)


def test_steal_before_task_charged_to_next_task():
    sim = Simulator()
    cpu = make_cpu(sim)
    cpu.steal(0.5)

    def worker():
        yield from cpu.busy(1.0)
        return sim.now

    p = sim.process(worker())
    assert sim.run(until=p) == pytest.approx(1.5)


def test_flops_time():
    sim = Simulator()
    cpu = make_cpu(sim, clock_hz=1e9, flops_per_cycle=2.0)
    assert cpu.flops_time(2e9) == pytest.approx(1.0)


def test_task_time_roofline():
    sim = Simulator()
    cpu = make_cpu(sim, clock_hz=1e9, flops_per_cycle=1.0)
    # Compute-bound: many flops, few bytes.
    assert cpu.task_time(flops=1e9, nbytes=8) == pytest.approx(1.0)
    # Memory-bound: DRAM stream at 0.6e9 B/s.
    t = cpu.task_time(flops=1, nbytes=6e8, working_set=6e8)
    assert t == pytest.approx(1.0)


def test_negative_busy_rejected():
    sim = Simulator()
    cpu = make_cpu(sim)
    with pytest.raises(HardwareError):
        list(cpu.busy(-1.0))


def test_busy_time_statistics():
    sim = Simulator()
    cpu = make_cpu(sim)

    def worker():
        yield from cpu.busy(0.5)
        yield from cpu.busy(0.25)

    sim.process(worker())
    sim.run()
    assert cpu.busy_time == pytest.approx(0.75)
    assert cpu.tasks_run == 2


# --- the backlog rule ---------------------------------------------------------------
#: a coarse grid, so tasks start at the same instants as each other and
#: as the free-standing steals, and sums of 0.1-ish values round
_GAPS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 0.5])
_WORK = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.7])
_STEALS = st.lists(st.sampled_from([1e-9, 0.01, 0.1, 0.125, 0.3]), max_size=2)

#: one task: (gap before it, seconds of work, steals charged in the
#: requesting entry before / after the request, steals queued at the
#: start time before / after the request, steals from a process started
#: after the request, and steals queued after the request for the
#: task's end time with no backlog)
_TASK = st.tuples(
    _GAPS, _WORK, _STEALS, _STEALS, _STEALS, _STEALS, _STEALS, _STEALS
)


def _schedule():
    """Random task and steal schedules on one CPU.

    The free-standing steals are queued before any request, on the same
    grid as the tasks, so they tie with task starts and ends.
    """
    tasks = st.lists(_TASK, min_size=1, max_size=4)
    return st.fixed_dictionaries(
        {
            "procs": st.lists(tasks, min_size=1, max_size=3),
            "steals": st.lists(st.tuples(_GAPS, _GAPS, _STEALS), max_size=4),
        }
    )


#: a steal charged right after an inline request, at the start instant
_STEAL_AT_START = {
    "procs": [[(0.0, 0.25, [], [0.125], [], [], [], [])]],
    "steals": [],
}

#: a steal queued after the request for the task's end time
_STEAL_AT_END = {
    "procs": [[(0.0, 0.25, [], [], [], [], [], [0.125])]],
    "steals": [],
}


def _run_schedule(schedule):
    """Run ``schedule`` by processes on one CPU.

    Returns the CPU and a log in execution order: ``("steal", None,
    now, seconds)`` per steal, and per task ``("start", key, now,
    work)`` where it reads the backlog, ``("wake", key, now, None)``
    each time one of its sleeps ends, and ``("end", key, now, None)``.
    """
    sim = Simulator()
    cpu = make_cpu(sim)
    log = []

    def steal(s):
        log.append(("steal", None, sim.now, s))
        cpu.steal(s)

    def steal_all(amounts):
        for s in amounts:
            steal(s)

    def stealer(amounts):
        steal_all(amounts)
        yield sim.timeout(0.0)

    for a, b, amounts in schedule["steals"]:
        sim.call_at(a + b, steal_all, amounts)

    def proc(tag, tasks):
        for k, (gap, work, d_pre, d_post, q_pre, q_post, urgent, end) in enumerate(
            tasks
        ):
            key = (tag, k)
            yield sim.timeout(gap)
            steal_all(d_pre)
            for s in q_pre:
                sim.call_after(0.0, steal, s)
            t0 = sim.now
            started = not cpu._held  # a free core is taken inline
            body = cpu.busy(work)
            ev = next(body)  # the request is made
            if started:
                log.append(("start", key, t0, work))
            steal_all(d_post)
            for s in q_post:
                sim.call_after(0.0, steal, s)
            if urgent:
                sim.process(stealer(urgent))
            for s in end:
                sim.call_at(t0 + work, steal, s)
            while True:
                value = yield ev
                if started:
                    log.append(("wake", key, sim.now, None))
                else:
                    log.append(("start", key, sim.now, work))
                    started = True
                try:
                    ev = body.send(value)
                except StopIteration:
                    break
            log.append(("end", key, sim.now, None))

    for tag, tasks in enumerate(schedule["procs"]):
        sim.process(proc(tag, tasks))
    sim.run()
    return cpu, log


def _replay_rule(log):
    """Check ``_run_schedule``'s log against the rule, step by step.

    One task holds the core at a time.  It starts by taking the whole
    backlog, so its first sleep ends at ``start + (work + backlog)``.
    Steals charged while it sleeps (those at the start instant after
    the request included) wait for that sleep to end; each nonempty
    batch is one further sleep, and the task ends at the first wake
    with the backlog empty.  Returns the busy, stolen and task totals
    in the order the CPU sums them, and the backlog left at the end.
    """
    backlog = stolen = busy = 0.0
    tasks = 0
    holder = None
    for kind, key, now, x in log:
        if kind == "steal":
            backlog += x
            stolen += x
        elif kind == "start":
            assert holder is None, f"{key} started while {holder} held the core"
            remaining = x + backlog
            holder, start, due = key, now, now + remaining
            state = "sleep" if remaining > 0 else "zero"
            backlog = 0.0
        elif kind == "wake":
            assert key == holder and state in ("sleep", "zero"), (key, state)
            assert now == due, f"{key} woke at {now!r}, rule says {due!r}"
            if backlog > 0:
                due = now + backlog
                backlog = 0.0
                state = "sleep"
            else:
                state = "done"
        else:
            assert key == holder and state in ("done", "zero"), (key, state)
            assert now == due, f"{key} ended at {now!r}, rule says {due!r}"
            busy += now - start
            tasks += 1
            holder = None
    assert holder is None
    return busy, stolen, tasks, backlog


@settings(max_examples=300, deadline=None)
@given(_schedule())
@example(_STEAL_AT_START)
@example(_STEAL_AT_END)
def test_stolen_time_is_served_after_the_current_sleep(schedule):
    """Every task ends at ``start + (seconds + backlog-at-start)``,
    followed by one further sleep per batch of steals charged while it
    held the core, whatever the same-time steals around its request.
    The totals balance: every task runs, interrupt time is every second
    charged, and busy time is the work plus every stolen second some
    task served."""
    cpu, log = _run_schedule(schedule)
    busy, stolen, tasks, left = _replay_rule(log)
    assert (cpu.busy_time, cpu.interrupt_time, cpu.tasks_run) == (busy, stolen, tasks)
    assert cpu._steal_backlog == left  # charged after the last task's last sleep
    procs = schedule["procs"]
    assert busy == pytest.approx(sum(t[1] for p in procs for t in p) + stolen - left)
    assert tasks == sum(len(p) for p in procs)


def test_steal_at_the_start_instant_is_a_second_sleep():
    """A steal charged right after an inline request does not stretch
    the first sleep: it is served after it, ``(0 + 0.25) + 0.125``."""
    cpu, log = _run_schedule(_STEAL_AT_START)
    wakes = [now for kind, _key, now, _x in log if kind == "wake"]
    assert wakes == [0.25, 0.375]
    assert cpu.busy_time == 0.375 and cpu.interrupt_time == 0.125


# --- the callback driver against the generator driver -----------------------------
def _run_driven(callbacks, schedule):
    """``_run_schedule``'s schedule with every gap and task step run from
    callbacks: each task by ``CPU.busy_then`` (``callbacks``), or by
    stepping the ``CPU.busy`` generator on its events the way a process
    does.  Returns the spans, the totals and the kernel's
    ``(when, prio, seq)`` stream."""
    sink = []
    set_trace_sink(sink)
    try:
        sim = Simulator()
    finally:
        set_trace_sink(None)
    cpu = make_cpu(sim)
    spans = []

    def steal_all(amounts):
        for s in amounts:
            cpu.steal(s)

    for a, b, amounts in schedule["steals"]:
        sim.call_at(a + b, steal_all, amounts)

    def run_task(work, then):
        if callbacks:
            cpu.busy_then(work, then)
            return
        body = cpu.busy(work)

        def step(ev):
            try:
                nxt = body.send(ev._value)
            except StopIteration:
                then()
                return
            nxt.callbacks.append(step)

        next(body).callbacks.append(step)

    def task(tag, tasks, k):
        if k == len(tasks):
            return
        gap, work, d_pre, d_post, q_pre, q_post, urgent, end = tasks[k]

        def begin():
            steal_all(d_pre)
            for s in q_pre:
                sim.call_after(0.0, cpu.steal, s)
            t0 = sim.now

            def done():
                spans.append((tag, k, t0, sim.now))
                task(tag, tasks, k + 1)

            run_task(work, done)
            steal_all(d_post)
            for s in q_post:
                sim.call_after(0.0, cpu.steal, s)
            if urgent:
                sim.call_urgent(steal_all, urgent)
            for s in end:
                sim.call_at(t0 + work, cpu.steal, s)

        sim.call_after(gap, begin)

    for tag, tasks in enumerate(schedule["procs"]):
        sim.call_urgent(task, tag, tasks, 0)
    sim.run()
    order = [entry[:3] for entry in sink]
    return sorted(spans), cpu.busy_time, cpu.interrupt_time, cpu.tasks_run, order


@settings(max_examples=300, deadline=None)
@given(_schedule())
@example(_STEAL_AT_START)
@example(_STEAL_AT_END)
def test_busy_then_matches_busy(schedule):
    """``CPU.busy_then`` and the ``CPU.busy`` generator take the same
    steps: every task ends at the same float, the busy and interrupt
    totals agree, and the kernel sees the same pushes in the same order,
    steals at task starts and ends included."""
    assert _run_driven(True, schedule) == _run_driven(False, schedule)


def test_busy_then_runs_its_continuation_after_the_release():
    """``then`` runs where a process would resume after ``busy``: the
    core is already free, so a task it starts is taken inline."""
    sim = Simulator()
    cpu = make_cpu(sim)
    ends = []

    def second():
        ends.append(("first", sim.now, cpu._held))
        cpu.busy_then(0.5, lambda: ends.append(("second", sim.now)))

    cpu.busy_then(0.25, second)
    sim.run()
    assert ends == [("first", 0.25, False), ("second", 0.75)]
    assert cpu.tasks_run == 2 and cpu.busy_time == 0.75
    with pytest.raises(HardwareError):
        cpu.busy_then(-1.0, second)


# --- InterruptController ----------------------------------------------------------
def test_immediate_policy_delivers_per_cause():
    sim = Simulator()
    delivered = []
    ic = InterruptController(sim, handler=lambda n: delivered.append(n))
    for _ in range(5):
        ic.raise_irq()
    sim.run()
    assert delivered == [1, 1, 1, 1, 1]
    assert ic.coalescing_ratio() == pytest.approx(1.0)


def test_frame_threshold_coalesces():
    sim = Simulator()
    delivered = []
    ic = InterruptController(
        sim,
        policy=CoalescePolicy(delay=1.0, max_frames=4),
        handler=lambda n: delivered.append((n, sim.now)),
    )
    for _ in range(4):
        ic.raise_irq()
    sim.run()
    assert delivered == [(4, 0.0)]


def test_timer_fires_for_partial_batch():
    sim = Simulator()
    delivered = []
    ic = InterruptController(
        sim,
        policy=CoalescePolicy(delay=0.5, max_frames=100),
        handler=lambda n: delivered.append((n, sim.now)),
    )

    def dev():
        ic.raise_irq()
        yield sim.timeout(0.1)
        ic.raise_irq()

    sim.process(dev())
    sim.run()
    # Timer armed at first cause (t=0), fires at 0.5 with both causes.
    assert delivered == [(2, 0.5)]


def test_threshold_delivery_cancels_timer():
    sim = Simulator()
    delivered = []
    ic = InterruptController(
        sim,
        policy=CoalescePolicy(delay=10.0, max_frames=2),
        handler=lambda n: delivered.append((n, sim.now)),
    )
    ic.raise_irq()
    ic.raise_irq()  # hits threshold immediately
    sim.run()
    assert delivered == [(2, 0.0)]
    assert ic.pending == 0


def test_coalescing_adds_latency_for_single_packet():
    """The paper's point: mitigation delays short-message delivery."""
    sim = Simulator()
    delivered = []
    ic = InterruptController(
        sim,
        policy=CoalescePolicy(delay=70e-6, max_frames=8),
        handler=lambda n: delivered.append(sim.now),
    )
    ic.raise_irq()
    sim.run()
    assert delivered == [pytest.approx(70e-6)]


def test_invalid_policy():
    with pytest.raises(ValueError):
        CoalescePolicy(delay=-1.0)
    with pytest.raises(ValueError):
        CoalescePolicy(max_frames=0)


def test_raise_zero_causes_rejected():
    sim = Simulator()
    ic = InterruptController(sim)
    with pytest.raises(ValueError):
        ic.raise_irq(0)


def test_zero_delay_policy_fires_immediately():
    """``delay == 0`` means no coalescing timer: a cause delivers at
    once whatever ``max_frames`` says, and nothing is armed."""
    sim = Simulator()
    delivered = []
    ic = InterruptController(
        sim, CoalescePolicy(0.0, 4), handler=lambda n: delivered.append(n)
    )
    ic.raise_irq()
    assert ic.interrupts_delivered == 1
    assert delivered == [1]
    assert ic._timer is None
