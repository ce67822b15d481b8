"""End-to-end and per-layer benchmark of the cluster simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py                          # all four workloads
    python3 benchmarks/e2e/run.py --workload fig8-wire --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --trace 1                # per-layer table
    python3 benchmarks/e2e/run.py --out a.json             # save a result set
    python3 benchmarks/e2e/run.py compare a.json b.json    # do two sets agree?
    python3 benchmarks/e2e/run.py --write-reference        # exact-model makespans

Every timed iteration runs in a fresh child interpreter (``child.py``),
one at a time, with one BLAS/OpenMP thread.  A run makes at least the
workload's ``k`` iterations and keeps adding iterations until
``--seconds`` have passed; each metric is the median over iterations.
``--trace 1`` instead makes one instrumented and one profiled iteration
and reports the per-layer metrics.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REFERENCE = HERE / "reference.json"

#: seeds ``reference.json`` covers: the default and the held-out seed
REFERENCE_SEEDS = (2, 3)
DEFAULT_SEED = 2

#: workload names and their minimum iteration counts (``workloads.py``
#: holds the points; the parent never imports the simulator)
K = {
    "sort-inic-fattree": 3,
    "fft-inic-fattree": 3,
    "fft-tcp-aggregate": 5,
    "fig8-wire": 3,
}

#: end-to-end metrics: (name, unit, relative bound, absolute floor).
#: Lower is better for all of them.  The first three are the ones
#: BENCHMARK.json gates; ``makespan_err`` and ``failed_frac`` are
#: deterministic and may be 0, so only ``compare`` checks them.
END_TO_END = (
    ("wall_s", "s", 0.10, 0.0),
    ("setup_s", "s", 0.25, 0.02),
    ("peak_rss_mb", "MiB", 0.05, 0.0),
    ("makespan_err", "ratio", 0.0, 1e-12),
    ("failed_frac", "ratio", 0.0, 0.0),
)
GATED = ("wall_s", "setup_s", "peak_rss_mb")
#: recorded per iteration: the gated metrics plus the uncalibrated times
SAMPLED = (*GATED, "host_wall_s", "host_setup_s")

#: layers whose profiled self time is reported (the packages under
#: src/repro that the workloads execute, plus ``ext`` for the rest)
LAYERS = (
    "sim", "net", "inic", "protocols", "hw", "apps", "cluster", "core",
    "models", "ext",
)
PHASES = (
    "fft-compute", "transpose-compute", "transpose-comm", "inic-exchange",
    "inic-sort-comm", "sort-phase1", "sort-comm", "sort-phase2",
    "sort-countsort",
)

#: per-layer metrics: (name, unit, better)
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.peak_queue", "count", "lower"),
    ("sim.compiled", "bool", "higher"),
    ("net.frames", "count", "lower"),
    ("net.trains_fast", "count", "higher"),
    ("net.avg_hops", "hops", "lower"),
    ("net.max_queue_bytes", "B", "lower"),
    ("net.drops", "count", "lower"),
    ("inic.frames_sent", "count", "lower"),
    ("inic.completion_interrupts", "count", "lower"),
    ("inic.bus_util", "ratio", "lower"),
    ("inic.uplink_util", "ratio", "lower"),
    ("inic.config_s", "s", "lower"),
    ("protocols.retransmits", "count", "lower"),
    ("protocols.nacks", "count", "lower"),
    ("hw.cpu_util", "ratio", "lower"),
    ("hw.pci_util", "ratio", "lower"),
    ("hw.irq_delivered", "count", "lower"),
    *((f"apps.phase.{phase}", "s", "lower") for phase in PHASES),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_x", "x", "lower"),
)

#: a workload's run ends by this many seconds, hung children included
RUN_LIMIT_S = 170.0
#: iterations past ``k`` start only if they should end by this
EXTRA_UNTIL_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------
def prepare() -> None:
    """Build the optional native scheduler and byte-compile the sources,
    untimed and best-effort, so no iteration pays for either."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    # the compiler's temporary files stay inside the tree, under build/
    tmp = ROOT / "build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    for cmd in (
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        [sys.executable, "-m", "compileall", "-q", "src/repro", str(HERE)],
    ):
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=600,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"warning: {' '.join(cmd[1:])} failed: {exc}", file=sys.stderr)
            continue
        if done.returncode != 0:
            print(
                f"warning: {' '.join(cmd[1:])} exited {done.returncode}: "
                f"{done.stderr.decode(errors='replace')[-500:]}",
                file=sys.stderr,
            )


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, *flags: str, timeout: float = RUN_LIMIT_S) -> dict:
    """One iteration in a fresh interpreter; returns its JSON record."""
    if timeout <= 0:
        raise BenchError(f"{workload}: run exceeded {RUN_LIMIT_S:.0f} s")
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), *flags,
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: iteration exceeded {timeout:.0f} s") from None
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: iteration exited {done.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------
def load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def makespan_err(reference: dict, workload: str, seed: int, points: dict) -> Optional[float]:
    """Max over points of |makespan - exact| / exact, or ``None`` when
    ``reference.json`` has no exact makespans for this seed."""
    exact = reference.get(str(seed), {}).get(workload)
    if not exact or set(exact) != set(points):
        return None
    return max(abs(points[n]["makespan"] - exact[n]) / exact[n] for n in points)


def check_points(records: list[dict]) -> tuple[dict, list[str], set, int]:
    """Verify every iteration's points and their agreement with the first.

    Returns ``(points, failures, failed_points, attempted)``: the first
    iteration's events and makespan per point, one message per failed
    point run, the names of points that failed in any iteration, and the
    number of point runs.
    """
    first = {p["name"]: p for p in records[0]["points"]}
    failures: list[str] = []
    failed_points: set = set()
    attempted = 0
    for i, rec in enumerate(records):
        for p in rec["points"]:
            attempted += 1
            ref = first[p["name"]]
            why = p["error"]
            if why is None and (p["events"], p["makespan"]) != (ref["events"], ref["makespan"]):
                why = (
                    f"events/makespan {p['events']}/{p['makespan']!r} differ from "
                    f"iteration 0's {ref['events']}/{ref['makespan']!r}"
                )
            if why is not None:
                failed_points.add(p["name"])
                failures.append(f"iteration {i}: {p['name']}: {why}")
    points = {n: {"events": p["events"], "makespan": p["makespan"]} for n, p in first.items()}
    return points, failures, failed_points, attempted


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Run one workload; returns its entry of a result set."""
    records: list[dict] = []
    start = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    if trace:
        records.append(run_child(name, seed, "--telemetry", timeout=left()))
        records.append(run_child(name, seed, "--profile", timeout=left()))
    else:
        last = 0.0
        while True:
            elapsed = time.perf_counter() - start
            if len(records) >= K[name] and (
                elapsed >= seconds or elapsed + last > EXTRA_UNTIL_S
            ):
                break
            t = time.perf_counter()
            records.append(run_child(name, seed, timeout=left()))
            last = time.perf_counter() - t

    points, failures, failed_points, attempted = check_points(records)
    entry = {
        "iterations": len(records),
        "run_s": time.perf_counter() - start,
        "compiled": records[0]["compiled"],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "points": points,
        "metrics": {
            "makespan_err": makespan_err(reference, name, seed, points),
            "failed_frac": len(failed_points) / len(points),
        },
    }
    if trace:
        untraced, traced = records
        layers = dict(untraced["layers"])
        events = sum(p["events"] for p in points.values())
        layers.update(
            {
                "sim.events": events,
                "sim.events_per_s": events / untraced["wall_s"],
                "sim.compiled": float(untraced["compiled"]),
                "trace.wall_s": traced["host_wall_s"],
                "trace.overhead_x": traced["host_wall_s"] / untraced["host_wall_s"],
            }
        )
        self_s = traced["self_s"]
        for layer in LAYERS:
            layers[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        unlisted = sorted(set(self_s) - set(LAYERS))
        if unlisted:
            # a layer the table does not list counts as external time
            layers["ext.self_s"] += sum(self_s[n] for n in unlisted)
            print(f"note: {name}: self time of {unlisted} counted as ext", file=sys.stderr)
        entry["layers"] = {m: float(layers.get(m, 0.0)) for m, _, _ in PER_LAYER}
    else:
        samples = {m: [r[m] for r in records] for m in SAMPLED}
        entry["samples"] = samples
        entry["metrics"].update({m: statistics.median(v) for m, v in samples.items()})
    return entry


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{int(value)}" if float(value).is_integer() else f"{value:.6g}"


def print_table(result: dict, trace: bool) -> None:
    ws = result["workloads"]
    names = list(ws)
    if trace:
        rows = [(m, u, [ws[w]["layers"][m] for w in names]) for m, u, _ in PER_LAYER]
    else:
        rows = [
            (m, u, [ws[w]["metrics"][m] for w in names])
            for m, u in [(m, u) for m, u, _, _ in END_TO_END]
            + [("host_wall_s", "s"), ("host_setup_s", "s")]
        ]
        rows.append(("iterations", "count", [ws[w]["iterations"] for w in names]))
    width = max(len(n) for n in names) + 2
    print(f"{'metric':30s} {'unit':6s}" + "".join(f"{n:>{width}s}" for n in names))
    for metric, unit, values in rows:
        print(f"{metric:30s} {unit:6s}" + "".join(f"{_fmt(v):>{width}s}" for v in values))
    for w in names:
        for msg in result["workloads"][w]["failures"]:
            print(f"FAIL {w}: {msg}")


def contract_line(result: dict, trace: bool) -> dict:
    """The final stdout line: verification counts plus every gated
    end-to-end metric (or, traced, every per-layer metric) with its unit.
    A run of several workloads prefixes each metric with its workload."""
    ws = result["workloads"]
    attempted = sum(w["attempted"] for w in ws.values())
    failed = sum(w["failed"] for w in ws.values())
    metrics = {}
    for name, w in ws.items():
        prefix = "" if len(ws) == 1 else f"{name}."
        if trace:
            pairs = [(m, u, w["layers"][m]) for m, u, _ in PER_LAYER]
        else:
            pairs = [(m, u, w["metrics"][m]) for m, u, _, _ in END_TO_END if m in GATED]
        for metric, unit, value in pairs:
            metrics[prefix + metric] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _spread(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare(path_a: str, path_b: str) -> int:
    """Print, per workload and end-to-end metric, each result set's
    median and quartiles and whether the medians agree within the
    metric's bound.  Exit status 0 only if every pair agrees."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("seed", "compiled"):
        if a.get(key) != b.get(key):
            print(f"not comparable: {key} {a.get(key)} vs {b.get(key)}")
            return 2
    ok = True
    print(f"{'workload':18s} {'metric':13s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'bound':>10s}  agree")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:18s} missing from {path_b}")
            ok = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, unit, rel, floor in END_TO_END:
            va = wa.get("samples", {}).get(metric, [wa["metrics"][metric]])
            vb = wb.get("samples", {}).get(metric, [wb["metrics"][metric]])
            if None in va or None in vb:
                agree = va == vb
                cells = ["n/a".rjust(32), "n/a".rjust(32)]
                allowed = 0.0
            else:
                sa, sb = _spread(va), _spread(vb)
                allowed = max(rel * abs(sa[0]), floor)
                agree = abs(sb[0] - sa[0]) <= allowed
                cells = [
                    f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]".rjust(32) for s in (sa, sb)
                ]
            ok &= agree
            bound = f"{rel:.0%}" if rel else f"{floor:g}"
            print(f"{name:18s} {metric:13s} {cells[0]} {cells[1]} {bound:>10s}  "
                  f"{'yes' if agree else 'NO'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------
def write_reference() -> None:
    """Record the exact-model makespan of every point at each reference
    seed: the same builds without the fast path (the fig8 and aggregate
    workloads never take it, so they reproduce themselves)."""
    doc: dict = {}
    for seed in REFERENCE_SEEDS:
        doc[str(seed)] = {}
        for name in K:
            t = time.perf_counter()
            rec = run_child(name, seed, "--exact", timeout=600)
            bad = [p["name"] for p in rec["points"] if p["error"] is not None]
            if bad:
                raise BenchError(f"{name} seed {seed}: exact run failed on {bad}")
            doc[str(seed)][name] = {p["name"]: p["makespan"] for p in rec["points"]}
            print(f"seed {seed} {name}: {len(rec['points'])} points, "
                  f"{time.perf_counter() - t:.1f} s", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare", description=compare.__doc__)
        ap.add_argument("a")
        ap.add_argument("b")
        args = ap.parse_args(argv[1:])
        return compare(args.a, args.b)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", action="append", choices=list(K),
        help="workload to run (repeatable; default: all four)",
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep adding iterations past k until this much time has passed",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the result set to this JSON file")
    ap.add_argument(
        "--write-reference", action="store_true",
        help=f"rewrite {REFERENCE.name} from exact-model runs at seeds "
        f"{', '.join(map(str, REFERENCE_SEEDS))}",
    )
    args = ap.parse_args(argv)

    try:
        prepare()
        if args.write_reference:
            write_reference()
            return 0
        reference = load_reference()
        result = {
            "seed": args.seed,
            "trace": args.trace,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "workloads": {},
        }
        for name in args.workload or list(K):
            entry = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
            result["workloads"][name] = entry
        compiled = {w["compiled"] for w in result["workloads"].values()}
        result["compiled"] = compiled.pop() if len(compiled) == 1 else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print_table(result, bool(args.trace))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
