"""One iteration of a benchmark workload, in a fresh interpreter.

``run.py`` starts one of these per timed iteration, one at a time, so
every iteration starts from a clean heap and reports its own peak RSS::

    PYTHONPATH=src python benchmarks/e2e/child.py --workload fig8-wire --seed 2

``--telemetry`` builds every cluster instrumented and adds the per-layer
counts; ``--profile`` also runs the application calls under cProfile and
adds each layer's self time; ``--exact`` builds without the fast path
(the frame-level model ``reference.json`` holds).  The last line of
stdout is one JSON object.

Timing.  ``host_wall_s`` is the wall time of the application calls.  On
a machine shared with other tenants the same code runs up to 2x slower
for tens of seconds at a time, so the child also samples the host's
speed *during* those calls: a timer signal runs a fixed calibration
kernel every :data:`CAL_PERIOD_S`.  The call's work is the integral of
host speed over its wall time, so ``wall_s`` is ``host_wall_s`` times
the mean of ``CAL_REF_S / sample``: the wall time the calls would take
at the speed the kernel shows on the quiet reference host (a 2-vCPU
Xeon VM at 2.1 GHz, Python 3.11).  The samples' own time is left out
of both.  ``setup_s`` is scaled the same way by :func:`host_slowdown`,
taken right after the imports; ``host_setup_s`` is the raw time.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict

#: seconds between calibration samples during a timed call
CAL_PERIOD_S = 0.05
#: median time of one :func:`calibration_kernel` on the quiet reference host
CAL_REF_S = 3.4e-4


def calibration_kernel() -> None:
    """A fixed ~0.3 ms burst of interpreter work (dict updates in a loop)."""
    d: dict = {}
    for i in range(4000):
        d[i & 255] = d.get(i & 255, 0) + i


class HostSpeed:
    """Context manager that times :func:`calibration_kernel` every
    :data:`CAL_PERIOD_S` on a timer signal while the body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def host_slowdown(reps: int = 31) -> float:
    """How many times slower than on the quiet reference host the
    calibration kernel runs now: the median of ``reps`` back-to-back runs
    over :data:`CAL_REF_S`.  Set-up is too short for timer samples, and
    a slow phase outlasts a child, so one measurement scales all of it."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times) / CAL_REF_S


#: suffixes of per-node instruments summed into each layer count
_SUMS = {
    "inic.frames_sent": (".inic.frames_sent",),
    "inic.completion_interrupts": (".inic.completion_interrupts",),
    "inic.config_s": (".inic.fpga.config_time",),
    "protocols.retransmits": (".inic.retransmits", ".tcp.retransmitted_frames"),
    "protocols.nacks": (".inic.nacks_sent",),
    "hw.irq_delivered": (".irq.delivered",),
    "inic.bus_busy": tuple(
        f".inic.{bus}.busy_time"
        for bus in ("bus", "host-tx", "host-rx", "net-tx", "net-rx")
    ),
    "inic.uplink_busy": (".inic.uplink.busy_time",),
    "hw.cpu_busy": (".cpu.busy_time",),
    "hw.pci_busy": (".pci.busy_time",),
}


def point_counts(session, result) -> dict:
    """One point's per-layer counts, read from ``Session.metrics()``,
    ``sim.sched_stats()`` and the ``AppResult``."""
    m = session.metrics()
    out = {
        key: sum(v for name, v in m.items() if name.endswith(suffixes))
        for key, suffixes in _SUMS.items()
    }
    frames = m["switch.forwarded"]
    out.update(
        {
            "net.frames": frames,
            # a single-switch star forwards every frame over one hop
            "net.hops": m.get("switch.hops", frames),
            "net.drops": m["switch.drops"],
            "net.max_queue_bytes": max(
                (v for name, v in m.items() if name.endswith(".max_queue_bytes")),
                default=0,
            ),
            "net.trains_fast": getattr(session.cluster.switch, "trains_fast", 0),
            "sim.peak_queue": session.sim.sched_stats().get("peak", 0),
            "node_s": len(session.nodes) * result.makespan,
        }
    )
    for phase, seconds in result.breakdown.items():
        out[f"apps.phase.{phase}"] = seconds
    return out


def combine_counts(per_point: list[dict]) -> dict:
    """Workload totals: counts summed over points, peaks maxed, and each
    utilisation as busy time over ``p x makespan`` summed over points."""
    total: dict[str, float] = defaultdict(float)
    for counts in per_point:
        for key, value in counts.items():
            if key in ("sim.peak_queue", "net.max_queue_bytes"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    node_s = total.pop("node_s", 0.0) or 1.0
    for busy, util in (
        ("inic.bus_busy", "inic.bus_util"),
        ("inic.uplink_busy", "inic.uplink_util"),
        ("hw.cpu_busy", "hw.cpu_util"),
        ("hw.pci_busy", "hw.pci_util"),
    ):
        total[util] = total.pop(busy, 0.0) / node_s
    frames = total["net.frames"]
    total["net.avg_hops"] = total.pop("net.hops", 0.0) / frames if frames else 0.0
    return dict(total)


def layer_self_times(profile: cProfile.Profile, repro_dir: str) -> dict[str, float]:
    """Self time per ``repro`` package (``sim``, ``net``, ...).

    A function defined under ``repro_dir`` belongs to the package whose
    directory (or top-level module) holds it.  Self time of any other
    function (numpy, builtins, the compiled scheduler, generated
    dataclass methods) goes to the layer of its caller along the
    profiler's caller edges, split by the time each edge carried; what
    no ``repro`` caller reaches is ``ext``.

    This reads the profiler's raw entries, not ``pstats``: ``pstats``
    keys functions by file, line and name, and keeps only one of the
    generated ``__init__`` methods that share ``('<string>', 2, ...)``.
    """
    prefix = repro_dir.rstrip(os.sep) + os.sep
    entries = profile.getstats()
    # callee code -> [(caller code, callee self time, callee total time)]
    callers: dict = defaultdict(list)
    for entry in entries:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.inlinetime, sub.totaltime))

    def layer(code) -> str | None:
        filename = getattr(code, "co_filename", "")
        if not filename.startswith(prefix):
            return None
        head = filename[len(prefix):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head

    memo: dict = {}

    def shares(code, active: frozenset) -> dict[str, float]:
        """How calls of ``code`` split over layers, by cumulative time."""
        own = layer(code)
        if own is not None:
            return {own: 1.0}
        if code not in memo:
            weights: dict = defaultdict(float)
            for caller, _, total in callers[code]:
                if caller not in active:
                    weights[caller] += total
            memo[code] = _mix(weights, lambda c: shares(c, active | {code}))
        return memo[code]

    totals: dict[str, float] = defaultdict(float)
    for entry in entries:
        own = layer(entry.code)
        if own is not None:
            totals[own] += entry.inlinetime
            continue
        weights: dict = defaultdict(float)
        for caller, inline, _ in callers[entry.code]:
            weights[caller] += inline
        seen = frozenset({entry.code})
        for name, share in _mix(weights, lambda c: shares(c, seen)).items():
            totals[name] += entry.inlinetime * share
    return dict(totals)


def _mix(weights: dict, resolve) -> dict[str, float]:
    """Blend the layer shares of weighted callers; no weight means ``ext``."""
    total = sum(weights.values())
    if total <= 0:
        return {"ext": 1.0}
    out: dict[str, float] = defaultdict(float)
    for caller, weight in weights.items():
        for name, share in resolve(caller).items():
            out[name] += share * weight / total
    return dict(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--telemetry", action="store_true")
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--exact", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import numpy as np
    import repro
    import workloads as wl

    setup_s = time.perf_counter() - t0
    slowdown = host_slowdown()

    # The profiled child is not timed against anything but its own
    # untraced twin, so it takes no calibration samples.
    profile = cProfile.Profile() if args.profile else None
    speed = HostSpeed()
    timer = contextlib.nullcontext() if profile is not None else speed
    telemetry = args.telemetry or args.profile
    expected: dict = {}
    points, counts = [], []
    wall_s = 0.0
    compiled = False
    for point in wl.WORKLOADS[args.workload]:
        data = wl.make_input(point, args.seed)
        key = (point.app, point.size)
        if key not in expected:
            expected[key] = np.sort(data) if point.app == "sort" else np.fft.fft2(data)

        t = time.perf_counter()
        session = wl.build(point, exact=args.exact, telemetry=telemetry)
        setup_s += time.perf_counter() - t

        output = result = error = None
        t = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            with timer:
                output, result = wl.run_app(point, session, data)
        except Exception as exc:  # a failed point is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if profile is not None:
                profile.disable()
        wall_s += time.perf_counter() - t

        if error is None:
            error = wl.verify(point, output, expected[key])
        compiled = bool(session.sim.sched_stats().get("compiled", False))
        points.append(
            {
                "name": point.name,
                "events": session.sim.event_count,
                "makespan": result.makespan if result is not None else session.sim.now,
                "error": error,
            }
        )
        if telemetry and result is not None:
            counts.append(point_counts(session, result))
        # The simulator's object graph is cyclic: without a collection the
        # heap keeps every earlier point, and peak RSS would measure when
        # the collector last ran rather than the largest point.
        del session, output, result, data
        gc.collect()

    host_wall_s = wall_s - sum(speed.samples)
    if speed.samples:
        wall_s = host_wall_s * statistics.fmean(CAL_REF_S / x for x in speed.samples)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s / slowdown,
        "host_setup_s": setup_s,
        "wall_s": wall_s,
        "host_wall_s": host_wall_s,
        "calibration_samples": len(speed.samples),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "compiled": compiled,
        "points": points,
    }
    if telemetry:
        doc["layers"] = combine_counts(counts)
    if profile is not None:
        doc["self_s"] = layer_self_times(profile, os.path.dirname(repro.__file__))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
