"""Kernel diagnostics CLI: scheduler microbenchmark and A/B harnesses.

Three modes::

    python -m repro.sim --bench          # raw scheduler micro-timings
    python -m repro.sim --bench --json   # same, machine-readable
    python -m repro.sim --ab             # heap-vs-native ordering diff
    python -m repro.sim --ab-process     # callback-vs-coroutine scenario diff

``--bench`` times the bare schedulers (no engine, no models) over three
operation mixes so a scheduler change can be judged in isolation:

* ``hold``    — classic hold model: push N timed events, pop them all.
* ``churn``   — the timeout pattern: push N timers, cancel 90% before
  they fire, pop the survivors (tombstones are skipped at the root,
  never re-sorted).
* ``sawtooth`` — interleaved push/pop with monotone time, the shape the
  run loop actually produces.

``--ab-process`` is the same proof for the coroutine process layer
(:mod:`repro.sim.process`): each ported netbench scenario runs once in
its original generator ("callback") form and once as its ``async`` twin
— under every scheduler kind — and the ``(when, prio, seq, type)``
event streams plus results must match exactly.  An empty diff means
authoring style is pure syntax: the process API adds zero events and
perturbs nothing.

``--ab`` executes the ci perf suite once on the reference heap
scheduler and once per challenger kind (default: the native backend)
— with the engine's event trace sink installed —
and diffs each challenger's ``(when, prio, seq, type)`` stream against
the heap baseline.  An empty diff is the proof behind the byte-identical
``results/fig*.csv`` guarantee; any divergence prints the first
mismatching event and exits 1.  The PASS line names the backend that
actually ran (the native kind reports whether the compiled extension or
the reference-heap fallback served the run).
"""

from __future__ import annotations

import json
import os
import sys
import time
from random import Random

from .sched import SCHEDULER_KINDS, make_scheduler

_MIXES = ("hold", "churn", "sawtooth")


def _mix_hold(sched, n: int, rng: Random) -> int:
    for seq in range(n):
        sched.push(rng.random(), 1, seq, seq)
    while sched.pop() is not None:
        pass
    return 2 * n  # n pushes + n pops


def _mix_churn(sched, n: int, rng: Random) -> int:
    entries = []
    for seq in range(n):
        entries.append(sched.push(rng.random() * 1e-3, 1, seq, seq))
    cancelled = 0
    for i, entry in enumerate(entries):
        if i % 10:  # cancel 9 of every 10 before they fire
            sched.cancel(entry)
            cancelled += 1
    while sched.pop() is not None:
        pass
    return n + cancelled + (n - cancelled)


def _mix_sawtooth(sched, n: int, rng: Random) -> int:
    seq = 0
    now = 0.0
    for i in range(n):
        sched.push(now + rng.random() * 1e-4, 1, seq, seq)
        seq += 1
        if i & 1:
            entry = sched.pop()
            if entry is not None:
                now = entry[0]
    while sched.pop() is not None:
        pass
    return 2 * n


_MIX_FNS = {"hold": _mix_hold, "churn": _mix_churn, "sawtooth": _mix_sawtooth}


def bench_report(n: int, seed: int, kinds: tuple[str, ...]) -> dict:
    """Time every (kind, mix) cell; returns a JSON-ready report.

    Each scheduler entry records ``backend`` metadata from its own
    ``stats()`` — for the native kind that distinguishes the compiled
    extension (``compiled: true``) from the reference-heap fallback.
    """
    report: dict = {"n": n, "seed": seed, "mixes": list(_MIXES), "schedulers": {}}
    for kind in kinds:
        probe = make_scheduler(kind).stats()
        entry = {
            "backend": probe["kind"],
            "compiled": bool(probe.get("compiled", False)),
            "ops_per_sec": {},
        }
        for mix in _MIXES:
            sched = make_scheduler(kind)
            rng = Random(seed)
            t0 = time.perf_counter()
            ops = _MIX_FNS[mix](sched, n, rng)
            dt = time.perf_counter() - t0
            if len(sched):
                raise RuntimeError(
                    f"{kind}/{mix}: {len(sched)} entries left queued"
                )
            entry["ops_per_sec"][mix] = ops / dt
        report["schedulers"][kind] = entry
    return report


def run_bench(n: int, seed: int, kinds: tuple[str, ...], as_json: bool = False) -> int:
    try:
        report = bench_report(n, seed, kinds)
    except RuntimeError as exc:
        print(f"FAIL {exc}")
        return 1
    if as_json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    print(f"scheduler microbenchmark: n={n} seed={seed}")
    header = f"{'kind':>10} | " + " | ".join(f"{m:>14}" for m in _MIXES)
    print(header)
    print("-" * len(header))
    for kind in kinds:
        entry = report["schedulers"][kind]
        cells = [
            f"{entry['ops_per_sec'][mix] / 1e6:>10.2f}Mo/s" for mix in _MIXES
        ]
        print(f"{kind:>10} | " + " | ".join(cells))
        if kind == "native" and not entry["compiled"]:
            print(f"{'':>10}   (reference-heap fallback; extension not built)")
    print("(Mo/s = million scheduler operations per second, higher is better)")
    return 0


def _run_suite(kind: str, scale_name: str):
    """Run the perf suite under ``kind``; returns (trace, results)."""
    from ..bench.harness import Scale
    from ..bench.sweep import _RUNNERS, perf_points
    from . import engine

    saved = os.environ.get("REPRO_SIM_SCHEDULER")
    sink: list = []
    engine.set_trace_sink(sink)
    os.environ["REPRO_SIM_SCHEDULER"] = kind
    try:
        results = {}
        for spec in perf_points(Scale.by_name(scale_name)):
            r = _RUNNERS[spec.kind](spec.params)
            results[spec.name] = (r["events"], r["makespan"])
    finally:
        engine.set_trace_sink(None)
        if saved is None:
            os.environ.pop("REPRO_SIM_SCHEDULER", None)
        else:
            os.environ["REPRO_SIM_SCHEDULER"] = saved
    return sink, results


_AB_DEFAULT_KINDS = ("native",)


def _backend_label(kind: str) -> str:
    """Human label for the backend ``kind`` resolves to right now."""
    stats = make_scheduler(kind).stats()
    if kind == "native":
        return "native/compiled" if stats.get("compiled") else "native/fallback"
    return kind


def run_ab(scale_name: str, kinds: tuple[str, ...] = _AB_DEFAULT_KINDS) -> int:
    """Diff each challenger kind's event stream against the heap baseline."""
    trace_a, res_a = _run_suite("heap", scale_name)
    exit_code = 0
    for kind in kinds:
        if kind == "heap":
            continue
        label = _backend_label(kind)
        trace_b, res_b = _run_suite(kind, scale_name)
        ok = True
        for name in res_a:
            if res_a[name] != res_b.get(name):
                print(f"FAIL {name}: heap {res_a[name]} != {label} {res_b.get(name)}")
                ok = False
        if len(trace_a) != len(trace_b):
            print(
                f"FAIL trace length: heap {len(trace_a)} != {label} {len(trace_b)}"
            )
            ok = False
        for i, (a, b) in enumerate(zip(trace_a, trace_b)):
            if a != b:
                print(f"FAIL first divergence at event {i}: heap {a} != {label} {b}")
                ok = False
                break
        if ok:
            print(
                f"PASS heap == {label}: {len(res_a)} scenarios, "
                f"{len(trace_a)} events order-identical at scale {scale_name!r}"
            )
        else:
            exit_code = 1
    return exit_code


def _run_scenario(fn, kind: str):
    """Run one netbench scenario under ``kind``; returns (trace, result)."""
    from . import engine

    saved = os.environ.get("REPRO_SIM_SCHEDULER")
    sink: list = []
    engine.set_trace_sink(sink)
    os.environ["REPRO_SIM_SCHEDULER"] = kind
    try:
        res = fn()
    finally:
        engine.set_trace_sink(None)
        if saved is None:
            os.environ.pop("REPRO_SIM_SCHEDULER", None)
        else:
            os.environ["REPRO_SIM_SCHEDULER"] = saved
    return sink, (res.nbytes, res.repetitions, res.total_time)


def run_ab_process(kinds: tuple[str, ...] = SCHEDULER_KINDS) -> int:
    """Diff each ported coroutine scenario against its callback twin.

    For every scheduler kind, every scenario pair must produce the
    identical ``(when, prio, seq, type)`` stream and result; the
    coroutine trace must also be identical across kinds (anchored to
    the first kind's run).
    """
    from ..apps import netbench

    pairs = (
        ("tcp-pingpong", netbench.tcp_pingpong, netbench.tcp_pingpong_proc),
        ("inic-pingpong", netbench.inic_pingpong, netbench.inic_pingpong_proc),
        ("inic-stream", netbench.inic_stream, netbench.inic_stream_proc),
    )
    exit_code = 0
    anchors: dict[str, list] = {}
    for kind in kinds:
        label = _backend_label(kind)
        for name, callback_fn, proc_fn in pairs:
            trace_a, res_a = _run_scenario(callback_fn, kind)
            trace_b, res_b = _run_scenario(proc_fn, kind)
            ok = True
            if res_a != res_b:
                print(f"FAIL {name} [{label}]: callback {res_a} != process {res_b}")
                ok = False
            if len(trace_a) != len(trace_b):
                print(
                    f"FAIL {name} [{label}] trace length: callback "
                    f"{len(trace_a)} != process {len(trace_b)}"
                )
                ok = False
            for i, (a, b) in enumerate(zip(trace_a, trace_b)):
                if a != b:
                    print(
                        f"FAIL {name} [{label}] first divergence at event "
                        f"{i}: callback {a} != process {b}"
                    )
                    ok = False
                    break
            anchor = anchors.setdefault(name, trace_b)
            if ok and trace_b != anchor:
                print(
                    f"FAIL {name} [{label}]: process trace differs from "
                    f"the {kinds[0]} run"
                )
                ok = False
            if ok:
                print(
                    f"PASS {name} [{label}]: callback == process, "
                    f"{len(trace_a)} events order-identical"
                )
            else:
                exit_code = 1
    return exit_code


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim", description=__doc__.splitlines()[0]
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--bench", action="store_true",
        help="microbenchmark the raw schedulers",
    )
    mode.add_argument(
        "--ab", action="store_true",
        help="diff heap-vs-challenger event order over the perf suite",
    )
    mode.add_argument(
        "--ab-process", action="store_true",
        help="diff callback-vs-coroutine event order over the ported "
        "netbench scenarios (all scheduler kinds)",
    )
    parser.add_argument(
        "--n", type=int, default=100_000,
        help="(--bench) events per mix (default 100000)",
    )
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument(
        "--kinds", nargs="+", default=None,
        choices=list(SCHEDULER_KINDS),
        help="(--bench) schedulers to time (default: all); "
        "(--ab) challengers to diff against heap (default: native)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="(--bench) emit the report as JSON instead of a table",
    )
    parser.add_argument(
        "--scale", default="ci", choices=["ci", "bench", "paper"],
        help="(--ab) suite scale to diff (default ci)",
    )
    args = parser.parse_args(argv)
    if args.bench:
        kinds = tuple(args.kinds) if args.kinds else SCHEDULER_KINDS
        return run_bench(args.n, args.seed, kinds, as_json=args.json)
    if args.ab_process:
        kinds = tuple(args.kinds) if args.kinds else SCHEDULER_KINDS
        return run_ab_process(kinds)
    kinds = tuple(args.kinds) if args.kinds else _AB_DEFAULT_KINDS
    return run_ab(args.scale, kinds)


if __name__ == "__main__":
    sys.exit(main())
