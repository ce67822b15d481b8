"""Kernel diagnostics CLI: scheduler microbenchmark.

::

    python -m repro.sim --bench          # raw scheduler micro-timings
    python -m repro.sim --bench --json   # same, machine-readable

``--bench`` times the bare schedulers (no engine, no models) — the
reference :class:`~repro.sim.sched.HeapScheduler` and the native backend
every Simulator runs on — over three operation mixes so a scheduler
change can be judged in isolation:

* ``hold``    — classic hold model: push N timed events, pop them all.
* ``churn``   — the timeout pattern: push N timers, cancel 90% before
  they fire, pop the survivors (tombstones are skipped at the root,
  never re-sorted).
* ``sawtooth`` — interleaved push/pop with monotone time, the shape the
  run loop actually produces.

The two pop identical streams; the ``scheduler`` entries of the pair
registry (``tests/test_pairs.py``) hold them equal.
"""

from __future__ import annotations

import json
import sys
import time
from random import Random

from .sched import HeapScheduler, make_scheduler

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

#: the timed schedulers: the reference heap, and the backend a Simulator
#: takes (the compiled heap, or the reference heap without the extension)
_KINDS = {"native": make_scheduler, "heap": HeapScheduler}


def bench_report(n: int, seed: int) -> dict:
    """Time every (kind, mix) cell; returns a JSON-ready report.

    Each scheduler entry records ``backend`` metadata from its own
    ``stats()`` — for the native kind that distinguishes the compiled
    extension (``compiled: true``) from the reference-heap fallback.
    """
    report: dict = {"n": n, "seed": seed, "mixes": list(_MIXES), "schedulers": {}}
    for kind, make in _KINDS.items():
        probe = make().stats()
        entry = {
            "backend": probe["kind"],
            "compiled": bool(probe.get("compiled", False)),
            "ops_per_sec": {},
        }
        for mix in _MIXES:
            sched = make()
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


def run_bench(n: int, seed: int, as_json: bool = False) -> int:
    try:
        report = bench_report(n, seed)
    except RuntimeError as exc:
        print(f"FAIL {exc}")
        return 1
    if as_json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    # Each cell also shows its throughput as a multiple of the reference
    # heap's on the same mix.
    heap = report["schedulers"]["heap"]
    print(f"scheduler microbenchmark: n={n} seed={seed}")
    header = f"{'kind':>10} | " + " | ".join(f"{m:>23}" for m in _MIXES)
    print(header)
    print("-" * len(header))
    for kind, entry in report["schedulers"].items():
        cells = []
        for mix in _MIXES:
            ops = entry["ops_per_sec"][mix]
            cells.append(
                f"{ops / 1e6:>10.2f}Mo/s ({ops / heap['ops_per_sec'][mix]:>5.2f}x)"
            )
        print(f"{kind:>10} | " + " | ".join(cells))
        if kind == "native" and not entry["compiled"]:
            print(f"{'':>10}   (reference-heap fallback; extension not built)")
    print(
        "(Mo/s = million scheduler operations per second, higher is better; "
        "Nx = throughput vs heap)"
    )
    return 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--bench", action="store_true", required=True,
        help="microbenchmark the raw schedulers",
    )
    parser.add_argument(
        "--n", type=int, default=100_000,
        help="events per mix (default 100000)",
    )
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of a table",
    )
    args = parser.parse_args(argv)
    return run_bench(args.n, args.seed, as_json=args.json)


if __name__ == "__main__":
    sys.exit(main())
