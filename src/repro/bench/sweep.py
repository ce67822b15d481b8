"""Parallel sweep engine with a content-addressed scenario cache.

Every figure/benchmark point in the reproduction — one DES run or one
analytic-model evaluation at a given (scenario, P, problem size) — is
independent and deterministic.  This module turns that property into
throughput:

* **PointSpec** — a self-describing, hashable description of one point:
  a runner ``kind`` plus JSON-safe ``params`` (sizes, processor count,
  card/network names, RNG seed).  Identity is the canonical JSON of
  ``(kind, params)``; the display ``name`` is not part of identity, so
  two figures that share a baseline point share one computation.
* **Parallel execution** — cache misses fan out across worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`, ``--jobs N``,
  default ``os.cpu_count()``).  Each point seeds its own RNG from its
  spec, so parallel output is bit-identical to serial.
* **Content-addressed cache** — completed points are memoized in
  ``.sweep-cache/<sha256(spec + salt)>.json``.  The salt is a
  fingerprint of the source files the runner family depends on (plus
  :data:`ENGINE_VERSION`), so touching a model recomputes exactly the
  affected points and nothing else.

The perf-regression suite (``--suite perf``) and the figure suite
(:mod:`repro.bench.figures`) both route through this engine::

    python -m repro.bench.sweep --suite perf --jobs 2 --check
    python -m repro.bench.figures --scale paper --jobs 8 --csv results
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, Optional

from ..errors import ApplicationError

__all__ = [
    "ENGINE_VERSION",
    "DEFAULT_CACHE_DIR",
    "PointSpec",
    "PointResult",
    "SweepStats",
    "SweepEngine",
    "runner",
    "kind_salt",
    "canonical_json",
    "perf_points",
    "fault_points",
    "chaos_points",
    "scale_points",
    "scheduler_kind",
    "scheduler_backend",
    "build_report",
    "write_report",
    "main",
]

#: default on-disk cache location (git-ignored)
DEFAULT_CACHE_DIR = ".sweep-cache"

#: bumped on semantic changes to the runners themselves; folded into the
#: cache salt alongside the per-family source fingerprint.
ENGINE_VERSION = "1"

#: cache file schema version
_SCHEMA = 1


class SweepError(ApplicationError):
    """A sweep-engine failure (bad spec, nondeterministic point, ...)."""


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------
def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace.  Raises
    :class:`SweepError` for values JSON cannot represent."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SweepError(f"spec is not JSON-serializable: {exc}") from exc


@dataclass(frozen=True, eq=False)
class PointSpec:
    """One sweep point: a runner ``kind`` and its JSON-safe ``params``.

    ``name`` is the human/report label; it is *excluded* from identity
    so relabeling never invalidates the cache and shared baselines
    (e.g. the P=1 serial run every speedup curve divides by) are
    computed once.
    """

    kind: str
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _RUNNERS:
            raise SweepError(
                f"unknown point kind {self.kind!r}; have {sorted(_RUNNERS)}"
            )
        canonical_json(self.params)  # fail fast on unserializable params

    @property
    def identity(self) -> dict:
        return {"kind": self.kind, "params": self.params}

    @property
    def spec_hash(self) -> str:
        """sha256 of the canonical identity (salt-free)."""
        return hashlib.sha256(
            canonical_json(self.identity).encode("utf-8")
        ).hexdigest()

    def cache_key(self, salt: str) -> str:
        """Content address: sha256 over identity *and* the model-version
        salt, so stale results can never be served after code changes."""
        doc = {"identity": self.identity, "salt": salt}
        return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointSpec) and self.identity == other.identity

    def __hash__(self) -> int:
        return hash((self.kind, canonical_json(self.params)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PointSpec {self.name} kind={self.kind} {self.spec_hash[:12]}>"


@dataclass
class PointResult:
    """Outcome of one point: the runner's payload plus measurement."""

    spec: PointSpec
    value: dict
    wall_seconds: float
    repeats: int
    cached: bool

    @property
    def events(self) -> int:
        return int(self.value.get("events", 0))


@dataclass
class SweepStats:
    """What one :meth:`SweepEngine.run` call did."""

    points: int = 0
    unique: int = 0
    hits: int = 0
    executed: int = 0
    wall_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.unique if self.unique else 0.0


# ---------------------------------------------------------------------------
# Runner registry
# ---------------------------------------------------------------------------
_RUNNERS: dict[str, Callable[[dict], dict]] = {}
_KIND_FAMILY: dict[str, str] = {}

#: source layers each runner family depends on.  The sha256 of those
#: files is the model-version salt: touch the sort model and every DES
#: and analytic point recomputes; touch only this module's CLI and
#: nothing does.
_FAMILY_DEPS: dict[str, tuple[str, ...]] = {
    "des": (
        "repro.sim",
        "repro.hw",
        "repro.faults",
        "repro.net",
        "repro.protocols",
        "repro.inic",
        "repro.cluster",
        "repro.apps",
        "repro.core",
        "repro.models",
        "repro.telemetry",
        "repro.config",
        "repro.units",
        "repro.errors",
    ),
    "analytic": (
        "repro.models",
        "repro.hw",
        "repro.cluster",
        "repro.units",
        "repro.errors",
    ),
}


def runner(kind: str, family: str) -> Callable:
    """Register a point runner: ``fn(params dict) -> result dict``."""
    if family not in _FAMILY_DEPS:
        raise SweepError(f"unknown runner family {family!r}")

    def register(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        _RUNNERS[kind] = fn
        _KIND_FAMILY[kind] = family
        return fn

    return register


@lru_cache(maxsize=None)
def _module_files(module_name: str) -> tuple[str, ...]:
    import importlib

    mod = importlib.import_module(module_name)
    paths = getattr(mod, "__path__", None)
    if paths:  # package: every .py underneath, sorted for determinism
        files: list[str] = []
        for root in paths:
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames.sort()
                files.extend(
                    os.path.join(dirpath, f)
                    for f in sorted(filenames)
                    if f.endswith(".py")
                )
        return tuple(files)
    return (mod.__file__,) if getattr(mod, "__file__", None) else ()


@lru_cache(maxsize=None)
def _family_fingerprint(family: str) -> str:
    h = hashlib.sha256()
    for module_name in _FAMILY_DEPS[family]:
        for path in _module_files(module_name):
            h.update(os.path.basename(path).encode("utf-8"))
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def kind_salt(kind: str) -> str:
    """The model-version salt for a point kind."""
    family = _KIND_FAMILY.get(kind)
    if family is None:
        raise SweepError(f"unknown point kind {kind!r}")
    return f"{ENGINE_VERSION}:{family}:{_family_fingerprint(family)}"


# ---------------------------------------------------------------------------
# Point runners
# ---------------------------------------------------------------------------
def _card(name: Optional[str]):
    if name is None:
        return None
    from ..inic.card import ACEII_PROTOTYPE, IDEAL_INIC

    cards = {c.name: c for c in (ACEII_PROTOTYPE, IDEAL_INIC)}
    try:
        return cards[name]
    except KeyError:
        raise SweepError(f"unknown card {name!r}; have {sorted(cards)}") from None


def _network(name: str):
    from ..net.fabric import FAST_ETHERNET, GIGABIT_ETHERNET

    nets = {n.name: n for n in (FAST_ETHERNET, GIGABIT_ETHERNET)}
    try:
        return nets[name]
    except KeyError:
        raise SweepError(f"unknown network {name!r}; have {sorted(nets)}") from None


@lru_cache(maxsize=1)
def _hierarchy():
    from ..cluster.builder import athlon_node

    return athlon_node().hierarchy()


def _machine_params(d: Optional[dict]):
    from ..models.params import DEFAULT_PARAMS, MachineParams

    return DEFAULT_PARAMS if d is None else MachineParams(**d)


def machine_params_dict(params) -> Optional[dict]:
    """``params`` as a spec-embeddable dict (``None`` for the default
    calibration, keeping specs short and stable in the common case)."""
    from ..models.params import DEFAULT_PARAMS

    return None if params == DEFAULT_PARAMS else dataclasses.asdict(params)


def _fault_spec(p: dict):
    """The point's fault scenario (``None`` when the params carry no
    ``faults`` block — the common, bit-identical-to-history case)."""
    from ..faults import FaultSpec

    spec = FaultSpec.from_params(p.get("faults"))
    return spec if spec.enabled else None


def _recovery_card(card, retries: int):
    """Card spec with NACK/retransmit recovery enabled (``retries`` > 0)."""
    if card is None or retries <= 0:
        return card
    return dataclasses.replace(
        card, proto=dataclasses.replace(card.proto, max_retries=retries)
    )


def _robustness_counters(cluster, manager=None) -> dict:
    """Cluster-wide fault/recovery counters (the shared aggregation now
    lives in :func:`repro.faults.robustness_counters`, so the sweep,
    the chaos harness, and ``Session.report()`` all read one source)."""
    from ..faults import robustness_counters

    return robustness_counters(cluster)


def _merge_counters(a: dict, b: dict) -> dict:
    out = {}
    for k in {*a, *b}:
        va, vb = a.get(k), b.get(k)
        if isinstance(va, dict) or isinstance(vb, dict):
            out[k] = _merge_counters(va or {}, vb or {})
        else:
            out[k] = (va or 0) + (vb or 0)
    return out


def _fallback_faults(faults):
    """The fault spec a degraded host-TCP run inherits: resource-pressure
    dimensions carry over, link-fault and component-failure dimensions do
    not — the simplified TCP model stands for a transport that recovers
    losses internally, so injecting raw frame loss (or un-recovered
    component blackholes) under it would model the wrong failure."""
    import dataclasses as dc

    fb = dc.replace(
        faults, loss_rate=0.0, corrupt_rate=0.0, outages=(), components=()
    )
    return fb if fb.enabled else None


def _point_session(n: int, p: dict, card=None, network=None, faults=None):
    """Build one point's cluster through the experiment facade.

    An optional ``telemetry: true`` params flag instruments the cluster.
    Observation is pull-based, so makespans and event counts are
    unchanged; instrumented points hash differently, which is correct —
    their results carry an extra ``metrics`` payload."""
    from ..core.api import Experiment

    exp = Experiment().nodes(n).card(card).faults(faults)
    if network is not None:
        exp = exp.network(network)
    fabric = p.get("fabric")
    if fabric is not None:
        # topology options ride in the params as a JSON object, e.g.
        # {"fabric": "fattree", "fabric_options": {"oversub": 2}}
        exp = exp.fabric(fabric, **(p.get("fabric_options") or {}))
    if p.get("fastpath"):
        exp = exp.fastpath(True)
    return exp.telemetry(bool(p.get("telemetry"))).build()


def _point_value(session, res, **extra) -> dict:
    """A runner's result payload, with the telemetry snapshot merged in
    when the point asked for it."""
    out: dict[str, Any] = {
        "makespan": res.makespan,
        "events": session.sim.event_count,
    }
    # hierarchical fabrics also report their routing cost (hop counts);
    # single-star fabrics have no hop_stats, so legacy payloads (and
    # cache entries) are unchanged
    hop_stats = getattr(session.cluster.switch, "hop_stats", None)
    if hop_stats is not None:
        out["hops"] = hop_stats()
    # fast-path engagement counter: trains bulk-admitted by the fabric's
    # flow clock (absent from legacy payloads and frame-level runs)
    trains = getattr(session.cluster.switch, "trains_fast", 0)
    if trains:
        out["trains_fast"] = trains
    out.update(extra)
    if session.telemetry_enabled:
        out["metrics"] = session.metrics()
    return out


@runner("sort-des", family="des")
def _run_sort_des(p: dict) -> dict:
    """One Fig. 8(b)-style DES point: integer sort on ``p`` nodes.

    With a ``faults`` block in the params the run goes through the
    fault-injection path: link/switch/ring/config faults are installed,
    INIC recovery is enabled with ``retries`` NACK rounds, and the
    result carries robustness counters.  An FPGA configuration failure
    (after the manager's bounded retries) degrades to the host-TCP
    baseline — the wasted configuration time and the fallback are both
    visible in the result.  A transfer that exhausts its retry budget
    reports ``aborted`` with the deterministic abort-time makespan.
    """
    import numpy as np

    from ..apps.sort import baseline_sort, inic_sort
    from ..errors import ConfigurationError, TransferAborted

    g = np.random.default_rng(p["seed"])
    keys = g.integers(0, 2**32, size=p["e_init"], dtype=np.uint32)
    card = _card(p.get("card"))
    faults = _fault_spec(p)
    if faults is None:
        session = _point_session(p["p"], p, card=card)
        if card is None:
            _, res = baseline_sort(session.cluster, keys)
        else:
            _, res = inic_sort(session.cluster, session.manager, keys)
        return _point_value(session, res)

    retries = int(p.get("retries", 8))
    if card is None:
        session = _point_session(p["p"], p, faults=faults)
        _, res = baseline_sort(session.cluster, keys)
        return _point_value(
            session, res, aborted=False, fallbacks=0,
            faults=_robustness_counters(session.cluster),
        )
    session = _point_session(
        p["p"], p, card=_recovery_card(card, retries), faults=faults
    )
    cluster = session.cluster
    try:
        _, res = inic_sort(cluster, session.manager, keys)
    except ConfigurationError:
        # Graceful degradation: the INIC bitstream would not load, so the
        # job runs on the commodity host-TCP path instead.  The failed
        # cluster's elapsed time (the paid-for load attempts) and events
        # are charged on top of the baseline run.
        fb = _point_session(p["p"], p, faults=_fallback_faults(faults))
        _, res = baseline_sort(fb.cluster, keys)
        out = {
            "makespan": cluster.sim.now + res.makespan,
            "events": cluster.sim.event_count + fb.sim.event_count,
            "aborted": False,
            "fallbacks": 1,
            "faults": _merge_counters(
                _robustness_counters(cluster), _robustness_counters(fb.cluster)
            ),
        }
        if fb.telemetry_enabled:
            out["metrics"] = fb.metrics()
        return out
    except TransferAborted:
        out = {
            "makespan": cluster.sim.now,
            "events": cluster.sim.event_count,
            "aborted": True,
            "fallbacks": 0,
            "faults": _robustness_counters(cluster),
        }
        if session.telemetry_enabled:
            out["metrics"] = session.metrics()
        return out
    return _point_value(
        session, res, aborted=False, fallbacks=0,
        faults=_robustness_counters(cluster),
    )


@runner("fft-des", family="des")
def _run_fft_des(p: dict) -> dict:
    """One Fig. 8(a)-style DES point: 2D FFT on ``p`` nodes.

    Supports the same optional ``faults``/``retries`` params as the sort
    runner (see :func:`_run_sort_des`).
    """
    import numpy as np

    from ..apps.fft import baseline_fft2d, inic_fft2d
    from ..errors import ConfigurationError, TransferAborted

    rows = p["rows"]
    g = np.random.default_rng(p["seed"])
    m = g.standard_normal((rows, rows)) + 1j * g.standard_normal((rows, rows))
    network = _network(p["network"])
    card = _card(p.get("card"))
    faults = _fault_spec(p)
    if faults is None:
        session = _point_session(p["p"], p, card=card, network=network)
        if card is None:
            _, res = baseline_fft2d(session.cluster, m)
        else:
            _, res = inic_fft2d(session.cluster, session.manager, m)
        return _point_value(session, res)

    retries = int(p.get("retries", 8))
    if card is None:
        session = _point_session(p["p"], p, network=network, faults=faults)
        _, res = baseline_fft2d(session.cluster, m)
        return _point_value(
            session, res, aborted=False, fallbacks=0,
            faults=_robustness_counters(session.cluster),
        )
    session = _point_session(
        p["p"], p, card=_recovery_card(card, retries), network=network, faults=faults
    )
    cluster = session.cluster
    try:
        _, res = inic_fft2d(cluster, session.manager, m)
    except ConfigurationError:
        fb = _point_session(
            p["p"], p, network=network, faults=_fallback_faults(faults)
        )
        _, res = baseline_fft2d(fb.cluster, m)
        out = {
            "makespan": cluster.sim.now + res.makespan,
            "events": cluster.sim.event_count + fb.sim.event_count,
            "aborted": False,
            "fallbacks": 1,
            "faults": _merge_counters(
                _robustness_counters(cluster), _robustness_counters(fb.cluster)
            ),
        }
        if fb.telemetry_enabled:
            out["metrics"] = fb.metrics()
        return out
    except TransferAborted:
        out = {
            "makespan": cluster.sim.now,
            "events": cluster.sim.event_count,
            "aborted": True,
            "fallbacks": 0,
            "faults": _robustness_counters(cluster),
        }
        if session.telemetry_enabled:
            out["metrics"] = session.metrics()
        return out
    return _point_value(
        session, res, aborted=False, fallbacks=0,
        faults=_robustness_counters(cluster),
    )


@runner("fft-analytic", family="analytic")
def _run_fft_analytic(p: dict) -> dict:
    """Fig. 4(a) point: serial/INIC/GigE analytic FFT times."""
    from ..models.fft_model import inic_fft_time, serial_fft_time
    from ..models.gige_model import gige_fft_time

    mp = _machine_params(p.get("machine"))
    h = _hierarchy()
    rows, procs = p["rows"], p["p"]
    serial = serial_fft_time(rows, h, mp)
    return {
        "serial": serial,
        "inic": serial if procs == 1 else inic_fft_time(rows, procs, h, mp),
        "gige": gige_fft_time(rows, procs, h, mp),
    }


@runner("transpose-analytic", family="analytic")
def _run_transpose_analytic(p: dict) -> dict:
    """Fig. 4(b) point: transpose decomposition at one (rows, P)."""
    from ..models.fft_model import (
        fft_compute_total,
        inic_transpose_time,
        partition_bytes,
    )
    from ..models.gige_model import tcp_alltoall_time
    from ..units import seconds_to_ms

    mp = _machine_params(p.get("machine"))
    h = _hierarchy()
    rows, procs = p["rows"], p["p"]
    s = partition_bytes(rows, procs, mp)
    return {
        "comm_ms": seconds_to_ms(
            2
            * tcp_alltoall_time(
                s, procs, mp.gige_tcp_bulk_rate, mp.gige_tcp_message_overhead
            )
        ),
        "compute_ms": seconds_to_ms(fft_compute_total(rows, procs, h, mp)),
        "inic_ms": seconds_to_ms(inic_transpose_time(rows, procs, mp)),
        "partition_kib": s / 1024.0,
    }


@runner("sort-components-analytic", family="analytic")
def _run_sort_components(p: dict) -> dict:
    """Fig. 5(a) point: host-side sort phase times at one (E, P)."""
    from ..models.gige_model import tcp_alltoall_time
    from ..models.sort_model import sort_component_series

    mp = _machine_params(p.get("machine"))
    pt = sort_component_series(p["e_init"], [p["p"]], _hierarchy(), mp)[0]
    return {
        "count_sort": pt.count_sort_time,
        "phase1_bucket": pt.phase1_bucket_time,
        "phase2_bucket": pt.phase2_bucket_time,
        "communication": tcp_alltoall_time(
            pt.partition_kib * 1024.0,
            int(pt.p),
            mp.gige_tcp_bulk_rate,
            mp.gige_tcp_message_overhead,
        ),
        "partition_kib": pt.partition_kib,
    }


@runner("sort-analytic", family="analytic")
def _run_sort_analytic(p: dict) -> dict:
    """Fig. 5(b) point: serial/INIC/GigE analytic sort times."""
    from ..models.gige_model import gige_sort_time
    from ..models.sort_model import inic_sort_time, serial_sort_time

    mp = _machine_params(p.get("machine"))
    h = _hierarchy()
    e_init, procs = p["e_init"], p["p"]
    serial = serial_sort_time(e_init, h, mp)
    return {
        "serial": serial,
        "inic": serial if procs == 1 else inic_sort_time(e_init, procs, h, mp),
        "gige": gige_sort_time(e_init, procs, h, mp),
    }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def _execute_point(kind: str, params: dict, repeats: int) -> dict:
    """Worker entry: run one point ``repeats`` times; median wall clock,
    exact (and verified-identical) simulation output."""
    fn = _RUNNERS[kind]
    walls: list[float] = []
    value: Optional[dict] = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        v = fn(params)
        walls.append(time.perf_counter() - t0)
        if value is None:
            value = v
        elif v != value:
            raise SweepError(
                f"nondeterministic point kind={kind} params={params}: "
                f"{value} vs {v}"
            )
    return {
        "value": value,
        "wall_seconds": statistics.median(walls),
        "repeats": max(1, repeats),
    }


class SweepEngine:
    """Executes :class:`PointSpec` batches with caching and fan-out.

    :param jobs: worker processes (``None`` → ``os.cpu_count()``;
        ``1`` runs in-process, still bit-identical).
    :param cache_dir: on-disk cache location; ``None`` disables caching.
    :param force: recompute even on cache hit (results are re-written).
    :param repeats: measurement repeats per executed point
        (``wall_seconds`` is the median; outputs must be identical).
    :param salt_override: replaces the per-kind model-version salt —
        test hook for invalidation behaviour.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
        force: bool = False,
        repeats: int = 1,
        salt_override: Optional[str] = None,
    ):
        self.jobs = os.cpu_count() or 1 if jobs is None else max(1, jobs)
        self.cache_dir = cache_dir
        self.force = force
        self.repeats = max(1, repeats)
        self.salt_override = salt_override
        self.last_run = SweepStats()

    # -- cache ------------------------------------------------------------
    def _salt(self, spec: PointSpec) -> str:
        return self.salt_override if self.salt_override is not None else kind_salt(
            spec.kind
        )

    def _cache_path(self, spec: PointSpec) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{spec.cache_key(self._salt(spec))}.json")

    def _cache_load(self, spec: PointSpec) -> Optional[PointResult]:
        path = self._cache_path(spec)
        if path is None or self.force:
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if doc.get("schema") != _SCHEMA or doc.get("identity") != spec.identity:
            return None  # collision/corruption: treat as miss
        return PointResult(
            spec=spec,
            value=doc["value"],
            wall_seconds=doc["wall_seconds"],
            repeats=doc.get("repeats", 1),
            cached=True,
        )

    def _cache_store(self, result: PointResult) -> None:
        path = self._cache_path(result.spec)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        doc = {
            "schema": _SCHEMA,
            "identity": result.spec.identity,
            "name": result.spec.name,
            "salt": self._salt(result.spec),
            "value": result.value,
            "wall_seconds": result.wall_seconds,
            "repeats": result.repeats,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)  # atomic: concurrent sweeps never see partials

    # -- execution --------------------------------------------------------
    def run(self, specs: Iterable[PointSpec]) -> dict[str, PointResult]:
        """Execute (or recall) every spec; returns ``{name: result}`` in
        input order.  Specs with identical identity are computed once;
        duplicate *names* for distinct identities are an error."""
        t_start = time.perf_counter()
        ordered: list[PointSpec] = []
        by_hash: dict[str, PointSpec] = {}
        names: dict[str, str] = {}
        for spec in specs:
            h = spec.spec_hash
            prior = names.get(spec.name)
            if prior is not None and prior != h:
                raise SweepError(f"duplicate point name {spec.name!r}")
            names[spec.name] = h
            if h not in by_hash:
                by_hash[h] = spec
                ordered.append(spec)

        results: dict[str, PointResult] = {}
        misses: list[PointSpec] = []
        for spec in ordered:
            hit = self._cache_load(spec)
            if hit is not None:
                results[spec.spec_hash] = hit
            else:
                misses.append(spec)

        if misses:
            if self.jobs > 1 and len(misses) > 1:
                with ProcessPoolExecutor(
                    max_workers=min(self.jobs, len(misses))
                ) as pool:
                    futures = [
                        pool.submit(_execute_point, s.kind, s.params, self.repeats)
                        for s in misses
                    ]
                    outs = [f.result() for f in futures]
            else:
                outs = [
                    _execute_point(s.kind, s.params, self.repeats) for s in misses
                ]
            for spec, out in zip(misses, outs):
                result = PointResult(
                    spec=spec,
                    value=out["value"],
                    wall_seconds=out["wall_seconds"],
                    repeats=out["repeats"],
                    cached=False,
                )
                self._cache_store(result)
                results[spec.spec_hash] = result

        self.last_run = SweepStats(
            points=len(names),
            unique=len(ordered),
            hits=len(ordered) - len(misses),
            executed=len(misses),
            wall_seconds=time.perf_counter() - t_start,
        )
        # every input name resolves, including aliases of a shared identity
        return {name: results[h] for name, h in names.items()}


# ---------------------------------------------------------------------------
# Suites and reports
# ---------------------------------------------------------------------------
def perf_points(scale) -> list[PointSpec]:
    """The perf-regression scenario suite: the Fig. 8(b) integer-sort
    sweep over the TCP/GigE baseline and the prototype INIC."""
    procs = [p for p in scale.sort_procs if scale.sort_keys % p == 0]
    specs = [
        PointSpec(
            "sort-des",
            f"sort-gige-p{p}",
            {"e_init": scale.sort_keys, "p": p, "card": None, "seed": 2},
        )
        for p in procs
    ]
    specs += [
        PointSpec(
            "sort-des",
            f"sort-inic-p{p}",
            {"e_init": scale.sort_keys, "p": p, "card": "aceii-prototype", "seed": 2},
        )
        for p in procs
        if p > 1
    ]
    return specs


#: torus points stop here: dimension-ordered hops make the torus the
#: most event-expensive fabric per frame, and 64/256 nodes already pin
#: its contention behaviour (the fat-tree carries the 512/1024 axis)
TORUS_MAX_P = 256


def scale_points(
    scale,
    max_p: Optional[int] = None,
    fabrics: Optional[Iterable[str]] = None,
    fastpath: bool = True,
) -> list[PointSpec]:
    """The scale-out suite: FFT and integer sort at ``Scale.large``'s
    32-128 nodes, TCP/GigE baseline vs prototype INIC, both on the
    aggregated fabric (``fabric: "aggregate"`` — per-port busy-until
    contention instead of per-wire objects; see
    :class:`repro.net.fabric.AggregateFabric`) — then the hierarchical
    topology axis: the same workloads on a fat-tree up to 1024 nodes
    and on a 3D torus up to :data:`TORUS_MAX_P`
    (:mod:`repro.net.topology`).

    High node counts are INIC-centric (one GigE/fat-tree baseline pair
    at the smallest fabric size keeps the cross-check): the host-TCP
    stack generates ~3x the events per node and its 1024-node points
    would dominate the suite's wall for no extra fabric coverage.
    The FFT rows grow to ``p`` when the paper's 512-row matrix would
    leave nodes without a row partition (p=1024).

    ``max_p`` trims the processor axis (the CI smoke job runs just
    p=32) and ``fabrics`` selects fabric kinds (the CI matrix runs one
    kind per job) — neither changes any point's identity, so the full
    suite, the smoke job, and the matrix legs all share cache entries.
    ``fastpath`` (the default; ``--no-fastpath`` clears it) opts the
    INIC points into bulk flow-clock admission
    (:mod:`repro.net.flowclock`) — it rides in the params, so fast-path
    and frame-level runs occupy distinct cache entries.
    """
    fabric_set = None if fabrics is None else set(fabrics)

    def want(fabric: str) -> bool:
        return fabric_set is None or fabric in fabric_set

    inic: dict[str, Any] = {"card": "aceii-prototype"}
    if fastpath:
        inic["fastpath"] = True
    specs = []
    if not want("aggregate"):
        return _topology_points(scale, max_p, want, inic)
    for p in scale.sort_procs:
        if scale.sort_keys % p or (max_p is not None and p > max_p):
            continue
        base = {
            "e_init": scale.sort_keys,
            "p": p,
            "seed": 2,
            "fabric": "aggregate",
        }
        specs.append(
            PointSpec("sort-des", f"scale-sort-gige-p{p}", {**base, "card": None})
        )
        specs.append(
            PointSpec("sort-des", f"scale-sort-inic-p{p}", {**base, **inic})
        )
    rows = scale.fft_sizes[-1]
    for p in scale.fft_procs:
        if rows % p or (max_p is not None and p > max_p):
            continue
        base = {
            "rows": rows,
            "p": p,
            "network": "gigabit-ethernet",
            "seed": 2,
            "fabric": "aggregate",
        }
        specs.append(
            PointSpec("fft-des", f"scale-fft-gige-p{p}", {**base, "card": None})
        )
        specs.append(
            PointSpec("fft-des", f"scale-fft-inic-p{p}", {**base, **inic})
        )
    return specs + _topology_points(scale, max_p, want, inic)


def _topology_points(scale, max_p, want, inic: dict) -> list[PointSpec]:
    """The hierarchical-fabric axis of the scale suite (see
    :func:`scale_points` for the point-selection rationale)."""
    specs = []
    rows_base = scale.fft_sizes[-1]
    for topo in scale.topologies:
        if not want(topo):
            continue
        procs = [
            p
            for p in scale.fabric_procs
            if scale.sort_keys % p == 0
            and (max_p is None or p <= max_p)
            and (topo != "torus" or p <= TORUS_MAX_P)
        ]
        for p in procs:
            sort_base = {
                "e_init": scale.sort_keys,
                "p": p,
                "seed": 2,
                "fabric": topo,
            }
            specs.append(
                PointSpec(
                    "sort-des",
                    f"scale-sort-inic-{topo}-p{p}",
                    {**sort_base, **inic},
                )
            )
            rows = rows_base if rows_base % p == 0 else p
            fft_base = {
                "rows": rows,
                "p": p,
                "network": "gigabit-ethernet",
                "seed": 2,
                "fabric": topo,
            }
            specs.append(
                PointSpec(
                    "fft-des",
                    f"scale-fft-inic-{topo}-p{p}",
                    {**fft_base, **inic},
                )
            )
            if p == min(procs):  # one baseline pair per topology
                specs.append(
                    PointSpec(
                        "sort-des",
                        f"scale-sort-gige-{topo}-p{p}",
                        {**sort_base, "card": None},
                    )
                )
    return specs


#: NACK/retransmit rounds granted to every fault-suite scenario
FAULT_SUITE_RETRIES = 8
#: root seed for the fault suite's derived fault streams
FAULT_SUITE_SEED = 7


def fault_points(scale) -> list[PointSpec]:
    """The fault-injection suite: the Fig. 8(b)-style INIC sort swept
    over link loss rates (the makespan-vs-loss-rate curve), plus a
    forced FPGA-configuration-failure scenario that must degrade to the
    host-TCP path.  The loss-rate-0 point is the plain INIC point — same
    identity as the perf suite's, so it shares that cache entry and
    pins the zero-fault-equivalence property."""
    from ..faults import FaultSpec

    e_init = scale.sort_keys
    procs = [q for q in scale.sort_procs if q > 1 and e_init % q == 0]
    p = max(procs) if procs else 2
    specs = []
    for rate in scale.loss_rates:
        params = {"e_init": e_init, "p": p, "card": "aceii-prototype", "seed": 2}
        if rate > 0:
            params["faults"] = FaultSpec(
                seed=FAULT_SUITE_SEED, loss_rate=rate
            ).to_params()
            params["retries"] = FAULT_SUITE_RETRIES
        specs.append(PointSpec("sort-des", f"sort-faults-loss{rate:g}", params))
    specs.append(
        PointSpec(
            "sort-des",
            "sort-faults-fpga",
            {
                "e_init": e_init,
                "p": p,
                "card": "aceii-prototype",
                "seed": 2,
                "faults": FaultSpec(
                    seed=FAULT_SUITE_SEED, config_failure_rate=1.0
                ).to_params(),
                "retries": FAULT_SUITE_RETRIES,
            },
        )
    )
    # Fabric composition: the same lossy plan on the O(ports) aggregate
    # star, on a fat-tree, and on the torus.  All install the identical
    # named per-uplink injectors the full wire star uses (fabric.up<i>,
    # seeded via derive_seed), so recovery is exercised at every
    # fidelity level; ``build_report`` records each row's fabric.
    rate = max(r for r in scale.loss_rates if r > 0) if any(
        r > 0 for r in scale.loss_rates
    ) else 0.01
    for fabric in ("aggregate", "fattree", "torus"):
        specs.append(
            PointSpec(
                "sort-des",
                f"sort-faults-{fabric}",
                {
                    "e_init": e_init,
                    "p": p,
                    "card": "aceii-prototype",
                    "seed": 2,
                    "fabric": fabric,
                    "faults": FaultSpec(
                        seed=FAULT_SUITE_SEED, loss_rate=rate
                    ).to_params(),
                    "retries": FAULT_SUITE_RETRIES,
                },
            )
        )
    return specs


#: root seed for the chaos suite's campaign schedules
CHAOS_SUITE_SEED = 11
#: NACK/retransmit rounds granted to every chaos scenario — generous,
#: because an undetected outage can eat several rounds back to back
CHAOS_SUITE_RETRIES = 24


def chaos_points(scale) -> list[PointSpec]:
    """The chaos-campaign suite (``--suite chaos``): suite scenarios run
    under seeded component-failure schedules (:mod:`repro.faults.campaign`).

    * ``chaos-sort-fattree-p256`` — the acceptance anchor: a randomized
      spine-failure campaign (Poisson arrivals, exponential MTTR,
      blast radius 1) with a 100 us detection delay on the 256-node
      fat-tree.  Flows hashed to a dead spine are blackholed until
      detection, then rehash over the surviving spines; NACK recovery
      retransmits the holes.
    * ``chaos-sort-torus-p64`` — a deterministic single-router failure
      on a 4x4x5 torus whose fifth Z-plane is station-free: wrap routes
      cross the spare plane, so killing one spare router forces detours
      while partitioning nothing — every transfer must complete.
    * ``chaos-sort-aggregate-p64`` — a whole-uplink outage on the
      aggregate star: one station loses all TX capacity for the window
      and recovery must carry it past repair.

    Every schedule is plain data inside the point's ``FaultSpec``
    params, so the campaign is bit-identical across ``--jobs N`` by the
    same argument as every other sweep point.
    """
    from ..faults import ComponentFaultSpec, FaultSpec
    from ..faults.campaign import (
        CampaignSpec,
        campaign_fault_spec,
        fabric_components,
    )

    e_init = scale.sort_keys
    specs = []

    campaign = CampaignSpec(
        seed=CHAOS_SUITE_SEED,
        horizon=scale.chaos_horizon,
        failure_rate=600.0,
        mttr=1.2e-3,
        min_outage=3e-4,
        max_failures=3,
        max_concurrent=1,
        detection_delay=1e-4,
    )
    spine_faults = campaign_fault_spec(
        campaign, fabric_components("fattree", 256)
    )
    specs.append(
        PointSpec(
            "sort-des",
            "chaos-sort-fattree-p256",
            {
                "e_init": e_init,
                "p": 256,
                "card": "aceii-prototype",
                "seed": 2,
                "fabric": "fattree",
                "faults": spine_faults.to_params(),
                "retries": CHAOS_SUITE_RETRIES,
            },
        )
    )

    # 64 stations on a 4x4x5 torus: routers 64..79 (the z=4 plane) carry
    # transit wrap traffic but no stations, so failing one yields pure
    # detours — the "no non-partitioned transfer aborts" anchor.
    torus_faults = FaultSpec(
        seed=CHAOS_SUITE_SEED,
        components=(
            ComponentFaultSpec("router64", windows=((5e-4, 5e-3),)),
        ),
    )
    specs.append(
        PointSpec(
            "sort-des",
            "chaos-sort-torus-p64",
            {
                "e_init": e_init,
                "p": 64,
                "card": "aceii-prototype",
                "seed": 2,
                "fabric": "torus",
                "fabric_options": {"dims": [4, 4, 5]},
                "faults": torus_faults.to_params(),
                "retries": CHAOS_SUITE_RETRIES,
            },
        )
    )

    uplink_faults = FaultSpec(
        seed=CHAOS_SUITE_SEED,
        components=(
            ComponentFaultSpec(
                "up3", windows=((1e-3, 8e-4),), kind="uplink"
            ),
        ),
    )
    specs.append(
        PointSpec(
            "sort-des",
            "chaos-sort-aggregate-p64",
            {
                "e_init": e_init,
                "p": 64,
                "card": "aceii-prototype",
                "seed": 2,
                "fabric": "aggregate",
                "faults": uplink_faults.to_params(),
                "retries": CHAOS_SUITE_RETRIES,
            },
        )
    )
    return specs


def chaos_summary(doc: dict) -> dict:
    """The wall-free canonical view of a chaos report: simulation output
    only (events, makespans, outcome flags, robustness counters), no
    wall clocks or cache state — two runs of the same campaign must
    produce byte-identical summaries regardless of ``--jobs`` or host
    load, and CI diffs them with ``cmp``."""
    out = {"scale": doc["scale"], "scenarios": {}}
    for name, entry in doc["scenarios"].items():
        out["scenarios"][name] = {
            k: entry[k]
            for k in ("events", "makespan", "fabric", "aborted", "fallbacks",
                      "faults", "hops")
            if k in entry
        }
    return out


def scheduler_kind() -> str:
    """The scheduler kind new Simulators default to (env-overridable)."""
    from ..sim.engine import _DEFAULT_SCHEDULER

    return os.environ.get("REPRO_SIM_SCHEDULER") or _DEFAULT_SCHEDULER


def scheduler_backend() -> dict[str, Any]:
    """The backend ``scheduler_kind()`` actually resolves to, probed live.

    Distinguishes the compiled native extension from the reference heap
    it falls back to — the perf report must record which one produced
    the walls.
    """
    from ..sim.sched import make_scheduler

    kind = scheduler_kind()
    stats = make_scheduler(kind).stats()
    return {
        "kind": kind,
        "backend": stats["kind"],
        "compiled": bool(stats.get("compiled", False)),
    }


def build_report(
    results: dict[str, PointResult], scale_name: str, engine: SweepEngine
) -> dict[str, Any]:
    """The engine's JSON report — the single source every perf artifact
    (``BENCH_perf.json``, the committed reference) is written from."""
    backend = scheduler_backend()
    scenarios = {}
    for name, r in results.items():
        entry: dict[str, Any] = {
            "events": r.events,
            "wall_seconds": round(r.wall_seconds, 4),
            "cached": r.cached,
            # which event-queue backend produced this scenario's wall —
            # the native kind without the extension reports "heap"
            "scheduler": backend["backend"],
            "compiled": backend["compiled"],
            # fabric topology comes from the spec (not the cached value),
            # so legacy cache entries report correctly too
            "fabric": r.spec.params.get("fabric", "wire"),
            # bulk flow-clock admission opt-in (spec-side, like fabric)
            "fastpath": bool(r.spec.params.get("fastpath", False)),
        }
        if r.cached:
            # The wall (and anything derived from it) was measured by
            # whichever host populated the cache — tag it so `--check`
            # style gates never read wall-derived fields off this row
            # (see repro.bench.perf.WALL_DERIVED).
            entry["wall_cached"] = True
        if "hops" in r.value:  # hierarchical fabrics: routing cost
            entry["hops"] = r.value["hops"]
        if "trains_fast" in r.value:
            entry["trains_fast"] = r.value["trains_fast"]
        if r.wall_seconds > 0 and r.events:
            #: host throughput — the human-facing perf headline; event
            #: counts remain the machine-independent gate
            entry["events_per_sec"] = round(r.events / r.wall_seconds)
        if "makespan" in r.value:
            entry["makespan"] = r.value["makespan"]
        # fault-scenario points also surface their robustness counters
        for key in ("faults", "aborted", "fallbacks"):
            if key in r.value:
                entry[key] = r.value[key]
        # instrumented points carry their flat telemetry snapshot
        if "metrics" in r.value:
            entry["metrics"] = r.value["metrics"]
        scenarios[name] = entry
    stats = engine.last_run
    return {
        "scale": scale_name,
        "scheduler": scheduler_kind(),
        "scheduler_backend": backend,
        "jobs": engine.jobs,
        "repeats": engine.repeats,
        "cache": {
            "hits": stats.hits,
            "executed": stats.executed,
            "hit_rate": round(stats.hit_rate, 4),
        },
        "total_events": sum(s["events"] for s in scenarios.values()),
        "total_wall_seconds": round(
            sum(s["wall_seconds"] for s in scenarios.values()), 4
        ),
        "sweep_wall_seconds": round(stats.wall_seconds, 4),
        "scenarios": scenarios,
    }


def write_report(doc: dict[str, Any], path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    from .harness import Scale

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.sweep", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--suite", default="perf",
        choices=["perf", "figures", "faults", "scale", "chaos"],
        help="perf: the regression scenario suite; figures: every paper "
        "panel; faults: seeded lossy/degraded scenarios with recovery; "
        "scale: the 32-1024 node scale-out suite (aggregated star + "
        "hierarchical fat-tree/torus fabrics); chaos: seeded "
        "component-failure campaigns with reroute/failover and "
        "liveness/conservation invariant checks",
    )
    parser.add_argument(
        "--scale", default=None, choices=["ci", "bench", "paper", "large"],
        help="problem-size bundle (default: ci, or large for "
        "--suite scale/chaos)",
    )
    parser.add_argument(
        "--max-p", type=int, default=None,
        help="(scale suite) trim the processor axis to <= this many nodes "
        "(the CI smoke job runs --max-p 64)",
    )
    parser.add_argument(
        "--fabric", action="append", default=None, dest="fabrics",
        choices=["aggregate", "fattree", "torus"],
        help="(scale suite) restrict to these fabric kinds (repeatable; "
        "default: all).  The CI matrix runs one kind per job; point "
        "identities are filter-independent so the legs share caches",
    )
    parser.add_argument(
        "--no-fastpath", action="store_true",
        help="(scale suite) run the INIC points frame-level instead of "
        "with bulk flow-clock admission (repro.net.flowclock); the two "
        "modes cache separately",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: os.cpu_count())",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="wall-clock repeats per executed point (median recorded)",
    )
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk cache"
    )
    parser.add_argument(
        "--force", action="store_true",
        help="recompute every point even when cached",
    )
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument(
        "--summary", default=None, metavar="PATH",
        help="(chaos suite) also write the wall-free canonical summary "
        "here — two runs of one campaign must match byte-for-byte, "
        "whatever --jobs was (the CI chaos-smoke job cmp's them)",
    )
    parser.add_argument(
        "--csv", default=None,
        help="(figures suite) export per-figure CSVs to this directory",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="(perf/faults suites) instrument every point; the flat "
        "metrics snapshot rides into the report (instrumented points "
        "hash separately, so un-instrumented caches stay valid)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print per-scenario telemetry tables (implies --telemetry)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="(perf suite) fail if event counts regress vs the reference",
    )
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument(
        "--reference", default=None,
        help="event-count reference (default: benchmarks/perf_reference.json, "
        "or benchmarks/scale_reference.json for --suite scale)",
    )
    parser.add_argument("--update-reference", action="store_true")
    parser.add_argument(
        "--assert-cache-hits", type=float, default=None, metavar="FRACTION",
        help="fail unless at least this fraction of points were cache hits",
    )
    args = parser.parse_args(argv)

    if args.scale is None:
        args.scale = "large" if args.suite in ("scale", "chaos") else "ci"
    if args.reference is None:
        name = "scale_reference.json" if args.suite == "scale" else "perf_reference.json"
        args.reference = os.path.join("benchmarks", name)
    scale = Scale.by_name(args.scale)
    engine = SweepEngine(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        force=args.force,
        repeats=args.repeats,
    )

    if args.suite == "figures":
        from .figures import all_figures
        from .harness import render_all

        experiments = all_figures(scale, engine=engine)
        print(render_all(experiments))
        if args.csv:
            from .export import export_all_csv

            for path in export_all_csv(experiments, args.csv):
                print(f"wrote {path}")
        stats = engine.last_run  # all_figures runs one batched sweep
        print(
            f"sweep: {stats.unique} points, {stats.hits} cached, "
            f"{stats.executed} executed, jobs={engine.jobs}, "
            f"{stats.wall_seconds:.2f}s"
        )
    else:
        if args.suite == "faults":
            points = fault_points(scale)
        elif args.suite == "chaos":
            points = chaos_points(scale)
        elif args.suite == "scale":
            points = scale_points(
                scale,
                max_p=args.max_p,
                fabrics=args.fabrics,
                fastpath=not args.no_fastpath,
            )
        else:
            points = perf_points(scale)
        if args.telemetry or args.report:
            points = [
                PointSpec(s.kind, s.name, {**s.params, "telemetry": True})
                for s in points
            ]
        results = engine.run(points)
        doc = build_report(results, scale.name, engine)
        write_report(doc, args.out)
        if args.summary is not None:
            write_report(chaos_summary(doc), args.summary)
        for name, r in doc["scenarios"].items():
            tag = "cached" if r["cached"] else f"{r['wall_seconds']:.3f}s"
            extra = ""
            if args.suite in ("faults", "chaos") and r["fabric"] != "wire":
                extra += f" fabric={r['fabric']}"
            if "faults" in r:
                f = r["faults"]
                extra += (
                    f" dropped={f['frames_dropped']}"
                    f" retx={f['retransmits']}"
                    f" fallbacks={r['fallbacks']}"
                    f" aborted={r['aborted']}"
                )
                comp = f.get("components")
                if comp:
                    extra += (
                        f" reroutes={comp['reroutes']}"
                        f" failover_drops={comp['failover_drops']}"
                        f" partition_drops={comp['partition_drops']}"
                        f" uplink_drops={comp['uplink_drops']}"
                    )
            print(
                f"{name:22s} events={r['events']:>8d} "
                f"makespan={r['makespan']:.6f} wall={tag}{extra}"
            )
        print(
            f"{'TOTAL':16s} events={doc['total_events']:>8d} "
            f"wall={doc['total_wall_seconds']:.3f}s "
            f"(sweep {doc['sweep_wall_seconds']:.3f}s, jobs={doc['jobs']}) "
            f"-> {args.out}"
        )

        if args.report:
            from ..telemetry.report import render_outcomes, render_snapshot

            for name, r in doc["scenarios"].items():
                metrics = r.get("metrics")
                if metrics:
                    print(f"\n== {name} ==")
                    print(render_snapshot(metrics))
                if "faults" in r:
                    if not metrics:
                        print(f"\n== {name} ==")
                    print(render_outcomes(r))

        if args.update_reference:
            write_report(doc, args.reference)
            print(f"reference updated: {args.reference}")

        if args.check and args.suite == "chaos":
            from ..faults.campaign import check_invariants

            violations = []
            for name, r in doc["scenarios"].items():
                violations.extend(check_invariants(name, r))
            anchor = doc["scenarios"].get("chaos-sort-fattree-p256")
            if anchor is not None:
                comp = (anchor.get("faults") or {}).get("components") or {}
                if not comp.get("reroutes"):
                    violations.append(
                        "chaos-sort-fattree-p256: spine campaign produced "
                        "no reroutes (failover never engaged)"
                    )
            torus = doc["scenarios"].get("chaos-sort-torus-p64")
            if torus is not None:
                comp = (torus.get("faults") or {}).get("components") or {}
                if not comp.get("reroutes"):
                    violations.append(
                        "chaos-sort-torus-p64: router failure produced no "
                        "detours"
                    )
                if torus.get("aborted") or comp.get("partition_drops"):
                    violations.append(
                        "chaos-sort-torus-p64: a non-partitioned transfer "
                        "aborted or was partition-dropped"
                    )
            print(
                f"chaos campaign: {len(violations)} invariant violations "
                f"across {len(doc['scenarios'])} scenarios"
            )
            if violations:
                for msg in violations:
                    print(f"FAIL {msg}")
                return 1
            print(f"PASS chaos suite: {len(doc['scenarios'])} scenarios")
            return 0

        if args.check and args.suite == "faults":
            failures = []
            fpga = doc["scenarios"].get("sort-faults-fpga")
            if fpga is not None and fpga.get("fallbacks") != 1:
                failures.append(
                    "sort-faults-fpga: expected exactly one host-TCP fallback"
                )
            for name, r in doc["scenarios"].items():
                f = r.get("faults")
                if (
                    f
                    and f["frames_dropped"] > 0
                    and f["retransmits"] == 0
                    and not r.get("aborted")
                ):
                    failures.append(
                        f"{name}: frames were dropped but no recovery ran"
                    )
            if failures:
                for msg in failures:
                    print(f"FAIL {msg}")
                return 1
            print(f"PASS fault suite: {len(doc['scenarios'])} scenarios")
            return 0

        if args.check:
            from .perf import compare

            try:
                with open(args.reference) as fh:
                    reference = json.load(fh)
            except FileNotFoundError:
                print(f"no reference at {args.reference}; run --update-reference")
                return 1
            if args.suite == "scale" and (args.max_p is not None or args.fabrics):
                # The smoke job trims the processor/fabric axes; gate only
                # the points it actually selected (names are trim-stable).
                selected = {s.name for s in points}
                reference = {
                    **reference,
                    "scenarios": {
                        k: v
                        for k, v in reference["scenarios"].items()
                        if k in selected
                    },
                }
            failures = compare(doc, reference, args.tolerance)
            if failures:
                for f in failures:
                    print(f"FAIL {f}")
                return 1
            print(
                f"PASS all {len(reference['scenarios'])} scenarios within "
                f"{args.tolerance * 100:.0f}% of reference event counts"
            )

    if args.assert_cache_hits is not None:
        rate = engine.last_run.hit_rate
        if rate < args.assert_cache_hits:
            print(
                f"FAIL cache hit rate {rate:.0%} < "
                f"required {args.assert_cache_hits:.0%}"
            )
            return 1
        print(f"PASS cache hit rate {rate:.0%}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    import sys

    sys.exit(main())
