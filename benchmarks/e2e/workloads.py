"""The benchmark's four workloads: their points, inputs and output checks.

A *point* is one application call on one freshly built cluster.  Every
point is driven through the public facade only (``repro.api.Experiment``
and the ``repro.apps`` entry points), never through the sweep engine or
its cache, because a cache hit would skip the very work being timed.

Inputs come from the workload seed exactly as the sweep runners make
them: ``default_rng(seed).integers(0, 2**32, n, uint32)`` for sort keys
and ``standard_normal + 1j * standard_normal`` for FFT matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import (
    ACEII_PROTOTYPE,
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    CardSpec,
    Experiment,
    NetworkTechnology,
)
from repro.apps.fft import baseline_fft2d, inic_fft2d
from repro.apps.sort import baseline_sort, inic_sort

__all__ = [
    "FFT_RTOL",
    "Point",
    "WORKLOADS",
    "build",
    "make_input",
    "run_app",
    "verify",
]

#: an FFT output is wrong when its largest error exceeds this share of
#: the reference's largest magnitude
FFT_RTOL = 1e-9


@dataclass(frozen=True)
class Point:
    """One application call: what to run, on which cluster."""

    name: str
    app: str  # "sort" or "fft"
    size: int  # keys for sort, matrix rows for fft
    p: int
    card: Optional[CardSpec] = None
    network: NetworkTechnology = GIGABIT_ETHERNET
    fabric: str = "wire"
    #: take the bulk flow-clock fast path where the facade offers it
    fastpath: bool = False


def _fig8_points() -> tuple[Point, ...]:
    """The 35 DES points of Fig. 8(a) and 8(b) at paper scale, named as
    :mod:`repro.bench.figures` names them."""
    procs = (2, 4, 8, 16)
    curves = (
        (GIGABIT_ETHERNET, ACEII_PROTOTYPE),
        (FAST_ETHERNET, None),
        (GIGABIT_ETHERNET, None),
    )
    points = []
    for rows in (256, 512):
        points.append(Point(f"fig8a/gigabit-ethernet/r{rows}/p1", "fft", rows, 1))
        for network, card in curves:
            tag = card.name if card is not None else network.name
            points += [
                Point(f"fig8a/{tag}/r{rows}/p{p}", "fft", rows, p, card, network)
                for p in procs
            ]
    keys = 1 << 24
    points.append(Point(f"fig8b/gige/e{keys}/p1", "sort", keys, 1))
    for card in (None, ACEII_PROTOTYPE):
        tag = card.name if card is not None else "gige"
        points += [
            Point(f"fig8b/{tag}/e{keys}/p{p}", "sort", keys, p, card) for p in procs
        ]
    return tuple(points)


#: each workload's points, and why the benchmark runs it
WORKLOADS: dict[str, tuple[Point, ...]] = {
    # INIC bucket sort on the fat-tree with the card train fast path: net
    # and inic do the work, the kernel little, and the frame-level
    # count-exchange prologue that still scales O(p^2) shows.  p=256
    # rather than 512 keeps an iteration near 2 s, so a run fits several.
    "sort-inic-fattree": (
        Point(
            "sort-inic-fattree-p256", "sort", 1 << 21, 256, ACEII_PROTOTYPE,
            fabric="fattree", fastpath=True,
        ),
    ),
    # Same fabric and card path with few events: the wall is card train
    # bookkeeping, routing and host block extraction, so a kernel
    # optimisation should not move it.  Its fast-path makespan is the one
    # furthest from the exact model.
    "fft-inic-fattree": (
        Point(
            "fft-inic-fattree-p256", "fft", 512, 256, ACEII_PROTOTYPE,
            fabric="fattree", fastpath=True,
        ),
    ),
    # Kernel-bound host TCP (947k events) with no INIC or flow-clock code:
    # the "no change" control for card and fast-path work.
    "fft-tcp-aggregate": (
        Point("fft-tcp-aggregate-p128", "fft", 512, 128, fabric="aggregate"),
    ),
    # The paper's own figures on the full wire star: per-wire
    # Link/Switch/NIC objects and the frame-level credit datapath, so a
    # float-clock gain that costs the wire star shows here.
    "fig8-wire": _fig8_points(),
}


def make_input(point: Point, seed: int) -> np.ndarray:
    """The point's input, drawn from ``seed`` as the sweep runners draw it."""
    g = np.random.default_rng(seed)
    if point.app == "sort":
        return g.integers(0, 2**32, size=point.size, dtype=np.uint32)
    n = point.size
    return g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))


def build(point: Point, exact: bool = False, telemetry: bool = False):
    """Build the point's session.  ``exact`` leaves the fast path off, which
    gives the frame-level model the fast path approximates."""
    exp = (
        Experiment()
        .nodes(point.p)
        .card(point.card)
        .network(point.network)
        .fabric(point.fabric)
        .telemetry(telemetry)
    )
    # Where the fast path is always on, the facade has no switch for it.
    if point.fastpath and not exact and hasattr(exp, "fastpath"):
        exp = exp.fastpath(True)
    return exp.build()


def run_app(point: Point, session, data: np.ndarray):
    """Run the point's application; returns ``(output, AppResult)``."""
    cluster, manager = session.cluster, session.manager
    if point.app == "sort":
        if point.card is None:
            return baseline_sort(cluster, data)
        return inic_sort(cluster, manager, data)
    if point.card is None:
        return baseline_fft2d(cluster, data)
    return inic_fft2d(cluster, manager, data)


def verify(point: Point, output, expected: np.ndarray) -> Optional[str]:
    """``None`` when ``output`` is right, else why it is wrong.

    ``expected`` is ``np.sort(keys)`` for a sort and ``np.fft.fft2(m)``
    for an FFT.
    """
    if point.app == "sort":
        got = np.concatenate([np.asarray(part).ravel() for part in output])
        if got.shape != expected.shape or not np.array_equal(got, expected):
            return "sorted output differs from np.sort(keys)"
        return None
    got = np.asarray(output)
    if got.shape != expected.shape:
        return f"FFT output shape {got.shape} != {expected.shape}"
    err = float(np.max(np.abs(got - expected)))
    scale = float(np.max(np.abs(expected)))
    if not err <= FFT_RTOL * scale:
        return f"FFT max error {err:.3e} exceeds {FFT_RTOL:g} x {scale:.3e}"
    return None
