"""Deterministic fault injection for the simulated fabric.

The paper's application-specific protocol (Section 4.1) assumes a
loss-free fabric *by construction*.  Real deployments do not get that
luxury: links take bit errors, switches tail-drop under pressure, NIC
RX rings overflow, and FPGA bitstream loads fail.  This module lets a
scenario schedule exactly those faults — **deterministically** — so the
recovery machinery (NACK-driven retransmission in the protocols, the
INIC→host-TCP fallback) can be exercised and measured.

Design rules
------------
* A :class:`FaultSpec` is frozen and JSON-safe, so it can ride inside a
  :class:`~repro.bench.sweep.PointSpec`'s params and participate in the
  sweep engine's content-addressed caching.
* Every stochastic decision draws from a stream derived by
  :func:`repro.sim.rand.derive_seed` over ``(seed, component kind,
  component name)``.  Streams are per-component and draws happen in
  simulation-event order, so a run is bit-identical no matter how many
  ``--jobs`` workers the sweep fans out over, and adding a faulty
  component never perturbs the draws of another.
* A spec with every field at its default (:data:`NO_FAULTS`) must be
  indistinguishable from no fault plan at all: injectors are only
  installed where a fault dimension is active, so zero-fault runs stay
  bit-identical to pre-fault-subsystem output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fnmatch import fnmatch
from typing import Optional, TYPE_CHECKING

import numpy as np

from ..errors import FaultConfigError
from ..sim.rand import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.packet import Frame

__all__ = [
    "FaultSpec",
    "ComponentFaultSpec",
    "COMPONENT_KINDS",
    "NO_FAULTS",
    "WireFault",
    "FaultPlan",
    "robustness_counters",
    "DELIVER",
    "DROP",
    "CORRUPT",
]

#: wire-fault dispositions
DELIVER = "deliver"
#: the frame vanishes before serialization (cable pull, outage)
DROP = "drop"
#: the frame burns wire time but fails CRC at the sink (bit error)
CORRUPT = "corrupt"

#: component kinds a :class:`ComponentFaultSpec` may target
COMPONENT_KINDS = ("switch", "uplink")


def _validate_windows(
    windows, field_name: str
) -> tuple[tuple[float, float], ...]:
    """Coerce and validate ``(start_s, duration_s)`` windows.

    Windows must be sorted by start time and non-overlapping; a
    zero-length gap (one window starting exactly where the previous one
    ends) is allowed.  Violations raise :class:`FaultConfigError` naming
    the offending field, its value, and the valid shape.
    """
    try:
        coerced = tuple(tuple(float(x) for x in w) for w in windows)
    except (TypeError, ValueError) as exc:
        raise FaultConfigError(
            f"{field_name} must be a sequence of (start_s, duration_s) "
            f"pairs, got {windows!r}"
        ) from exc
    for i, w in enumerate(coerced):
        if len(w) != 2:
            raise FaultConfigError(
                f"{field_name}[{i}] must be a (start_s, duration_s) pair, "
                f"got {w!r}"
            )
    prev_start = prev_dur = None
    for i, (start, duration) in enumerate(coerced):
        if start < 0 or duration <= 0:
            raise FaultConfigError(
                f"{field_name}[{i}] is ({start}, {duration}): windows need "
                f"start >= 0 and duration > 0"
            )
        if prev_start is not None:
            if start < prev_start:
                raise FaultConfigError(
                    f"{field_name}[{i}] starts at {start}, before "
                    f"{field_name}[{i - 1}] at {prev_start}: windows must "
                    f"be sorted by start time"
                )
            if start < prev_start + prev_dur:
                raise FaultConfigError(
                    f"{field_name}[{i}] starting at {start} overlaps "
                    f"{field_name}[{i - 1}] ({prev_start}, {prev_dur}), "
                    f"which ends at {prev_start + prev_dur}: windows must "
                    f"not overlap (zero-length gaps are allowed)"
                )
        prev_start, prev_dur = start, duration
    return coerced


@dataclass(frozen=True)
class ComponentFaultSpec:
    """Fail/repair schedule for one named fabric component.

    ``component`` names a switch-level entity of the built fabric —
    ``spine<K>`` / ``router<R>`` for ``kind="switch"`` on the
    hierarchical fabrics, or an uplink port index (``up<P>``) for
    ``kind="uplink"``.  During each ``(start_s, duration_s)`` window the
    component is dead: frames crossing it are dropped (and charged to
    the fabric's drop accounting) and, after the owning
    :class:`FaultSpec`'s ``detection_delay``, routing adapts — the
    fat-tree rehashes flows over surviving spines and the torus detours
    via a fault-tolerant next-hop table.  At ``start + duration`` the
    component repairs and routing converges back.

    Frozen and JSON-safe so it can ride inside :class:`FaultSpec` (and
    therefore inside a sweep ``PointSpec``) without breaking the
    content-addressed cache.
    """

    #: fabric component name (e.g. ``"spine1"``, ``"router12"``, ``"up3"``)
    component: str
    #: fail/repair windows, ``(start_s, duration_s)`` each — sorted,
    #: non-overlapping (validated like :attr:`FaultSpec.outages`)
    windows: tuple[tuple[float, float], ...] = ()
    #: what the name refers to — one of :data:`COMPONENT_KINDS`
    kind: str = "switch"

    def __post_init__(self) -> None:
        if not isinstance(self.component, str) or not self.component:
            raise FaultConfigError(
                f"component must be a non-empty name string, "
                f"got {self.component!r}"
            )
        if self.kind not in COMPONENT_KINDS:
            raise FaultConfigError(
                f"unknown component fault kind {self.kind!r} for "
                f"{self.component!r} (choose from "
                f"{', '.join(COMPONENT_KINDS)})"
            )
        object.__setattr__(
            self,
            "windows",
            _validate_windows(
                self.windows, f"components[{self.component!r}].windows"
            ),
        )
        if not self.windows:
            raise FaultConfigError(
                f"components[{self.component!r}] schedules no windows: a "
                f"component fault needs at least one (start_s, duration_s) "
                f"window"
            )

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        """JSON-safe dict (round-trips through :meth:`from_json`)."""
        from ..config import config_to_json

        return config_to_json(self)

    @classmethod
    def from_params(cls, doc: dict) -> "ComponentFaultSpec":
        if isinstance(doc, ComponentFaultSpec):
            return doc
        if not isinstance(doc, dict):
            raise FaultConfigError(
                f"component fault entries must be dicts or "
                f"ComponentFaultSpec, got {doc!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise FaultConfigError(
                f"unknown component fault fields {sorted(unknown)} "
                f"(choose from {', '.join(sorted(known))})"
            )
        doc = dict(doc)
        if "windows" in doc:
            doc["windows"] = tuple(tuple(w) for w in doc["windows"])
        return cls(**doc)

    from_json = from_params


@dataclass(frozen=True)
class FaultSpec:
    """One scenario's fault schedule, as sweep-able plain data.

    All probabilities are per *wire transfer* — at CHUNK fidelity one
    transfer may stand for a train of ``frame_count`` physical frames,
    and a hit takes the whole train (a burst loss, which is also what
    tail drops and outages produce in practice).
    """

    #: root seed for every derived fault stream
    seed: int = 0
    #: per-transfer probability a matching wire silently drops the train
    loss_rate: float = 0.0
    #: per-transfer probability of frame corruption: the train occupies
    #: the wire but is discarded by the receiver's CRC check
    corrupt_rate: float = 0.0
    #: transient link outages: ``(start_s, duration_s)`` windows during
    #: which every matching wire drops everything it is handed
    outages: tuple[tuple[float, float], ...] = ()
    #: fnmatch pattern selecting which wires take link faults
    wires: str = "*"
    #: multiplier on switch buffer bytes per port (< 1 forces pressure)
    switch_buffer_scale: float = 1.0
    #: multiplier on NIC RX descriptor-ring depth (< 1 forces overflow)
    rx_ring_scale: float = 1.0
    #: per-attempt probability that an FPGA bitstream load fails
    config_failure_rate: float = 0.0
    #: scheduled component (switch/spine/router/uplink) fail+repair
    #: windows — see :class:`ComponentFaultSpec`
    components: tuple[ComponentFaultSpec, ...] = ()
    #: seconds between a component dying and routing reacting; frames
    #: routed toward the dead component during this window are dropped
    #: and charged (models failure-detection latency)
    detection_delay: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_rate", "corrupt_rate", "config_failure_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise FaultConfigError(
                    f"{name} must be in [0, 1], got {v}"
                )
        for name in ("switch_buffer_scale", "rx_ring_scale"):
            v = getattr(self, name)
            if not v > 0:
                raise FaultConfigError(f"{name} must be > 0, got {v}")
        if self.detection_delay < 0:
            raise FaultConfigError(
                f"detection_delay must be >= 0 seconds, "
                f"got {self.detection_delay}"
            )
        object.__setattr__(
            self, "outages", _validate_windows(self.outages, "outages")
        )
        object.__setattr__(
            self,
            "components",
            tuple(ComponentFaultSpec.from_params(c) for c in self.components),
        )
        seen: set[tuple[str, str]] = set()
        for c in self.components:
            key = (c.kind, c.component)
            if key in seen:
                raise FaultConfigError(
                    f"duplicate component fault for {c.kind} "
                    f"{c.component!r}: merge its windows into a single "
                    f"ComponentFaultSpec"
                )
            seen.add(key)

    # -- sweep-spec embedding ----------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True if any fault dimension is active."""
        return self != NO_FAULTS

    @property
    def link_faults(self) -> bool:
        return bool(self.loss_rate or self.corrupt_rate or self.outages)

    def to_params(self) -> Optional[dict]:
        """JSON-safe dict for PointSpec params (``None`` when inactive,
        so zero-fault specs keep their historical identity and cache)."""
        if not self.enabled:
            return None
        return self.to_json()

    @classmethod
    def from_params(cls, doc: Optional[dict]) -> "FaultSpec":
        if doc is None:
            return NO_FAULTS
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise FaultConfigError(
                f"unknown fault fields {sorted(unknown)} "
                f"(choose from {', '.join(sorted(known))})"
            )
        doc = dict(doc)
        if "outages" in doc:
            doc["outages"] = tuple(tuple(o) for o in doc["outages"])
        if "components" in doc:
            doc["components"] = tuple(
                ComponentFaultSpec.from_params(c) for c in doc["components"]
            )
        return cls(**doc)

    # -- repo-wide config convention ----------------------------------------
    def to_json(self) -> dict:
        """JSON-safe dict (round-trips through :meth:`from_json`).

        Unlike :meth:`to_params` — which returns ``None`` for inactive
        specs to preserve sweep-cache identity — this always emits the
        full document, matching the other configs' ``to_json``.
        """
        from ..config import config_to_json

        return config_to_json(self)

    @classmethod
    def from_json(cls, doc: dict) -> "FaultSpec":
        if doc is None:
            raise FaultConfigError("from_json needs a dict; use from_params for None")
        return cls.from_params(doc)


#: the ideal fabric — every injector hook resolves to "do nothing"
NO_FAULTS = FaultSpec()


class WireFault:
    """Per-wire link-fault injector (installed via ``Wire.install_fault``).

    Holds its own named random stream, so the decision sequence for one
    wire is a pure function of ``(spec.seed, wire name)`` — independent
    of any other wire's traffic and of sweep parallelism.
    """

    def __init__(self, spec: FaultSpec, wire_name: str):
        self.spec = spec
        self.wire_name = wire_name
        self._rng = np.random.default_rng(derive_seed(spec.seed, "wire", wire_name))
        # -- statistics ----------------------------------------------------
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.bytes_dropped = 0.0
        #: ``(sim_time, disposition, frame_count)`` decision log — the
        #: "fault schedule" the determinism tests compare across runs
        self.log: list[tuple[float, str, int]] = []

    def _in_outage(self, now: float) -> bool:
        return any(start <= now < start + dur for start, dur in self.spec.outages)

    def disposition(self, frame: "Frame", now: float) -> str:
        """Decide this transfer's fate; updates counters and the log."""
        spec = self.spec
        if self._in_outage(now):
            verdict = DROP
        elif spec.loss_rate > 0 and self._rng.random() < spec.loss_rate:
            verdict = DROP
        elif spec.corrupt_rate > 0 and self._rng.random() < spec.corrupt_rate:
            verdict = CORRUPT
        else:
            return DELIVER
        if verdict is DROP:
            self.frames_dropped += frame.frame_count
        else:
            self.frames_corrupted += frame.frame_count
        self.bytes_dropped += frame.wire_size
        self.log.append((now, verdict, frame.frame_count))
        return verdict


class FaultPlan:
    """The runtime side of a :class:`FaultSpec`: hands out injectors.

    One plan per built cluster; components ask it for their hook at
    wiring time.  It keeps every injector it created so scenario runners
    can aggregate drop/corruption counters afterwards.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._wire_faults: dict[str, WireFault] = {}

    @classmethod
    def from_params(cls, doc: Optional[dict]) -> Optional["FaultPlan"]:
        spec = FaultSpec.from_params(doc)
        return cls(spec) if spec.enabled else None

    # -- component hooks ---------------------------------------------------------
    def wire_fault(self, wire_name: str) -> Optional[WireFault]:
        """The injector for ``wire_name`` (``None``: wire stays ideal)."""
        if not self.spec.link_faults or not fnmatch(wire_name, self.spec.wires):
            return None
        wf = self._wire_faults.get(wire_name)
        if wf is None:
            wf = WireFault(self.spec, wire_name)
            self._wire_faults[wire_name] = wf
        return wf

    def switch_buffer(self, buffer_bytes: float) -> float:
        """Apply forced buffer pressure to a switch port budget."""
        return buffer_bytes * self.spec.switch_buffer_scale

    def rx_ring_depth(self, depth: int) -> int:
        """Apply RX descriptor-ring pressure to a NIC."""
        return max(1, int(depth * self.spec.rx_ring_scale))

    def config_attempt_fails(self, card_name: str, attempt: int) -> bool:
        """Does bitstream-load ``attempt`` (0-based) on ``card_name`` fail?

        Drawn from a stream derived per ``(card, attempt)``, so retrying
        a failed load is a fresh, reproducible draw — not a replay.
        """
        rate = self.spec.config_failure_rate
        if rate <= 0:
            return False
        rng = np.random.default_rng(
            derive_seed(self.spec.seed, "fpga", card_name, attempt)
        )
        return bool(rng.random() < rate)

    # -- aggregation -------------------------------------------------------------
    def link_counters(self) -> dict[str, float | int]:
        """Cluster-wide link-fault totals (JSON-safe)."""
        return {
            "frames_dropped": sum(
                w.frames_dropped for w in self._wire_faults.values()
            ),
            "frames_corrupted": sum(
                w.frames_corrupted for w in self._wire_faults.values()
            ),
            "bytes_dropped": float(
                sum(w.bytes_dropped for w in self._wire_faults.values())
            ),
        }

    def schedule(self) -> dict[str, list[tuple[float, str, int]]]:
        """The realized fault schedule: per-wire decision logs.

        Two runs of the same scenario must produce identical schedules —
        the determinism regression test compares these verbatim.
        """
        return {name: list(w.log) for name, w in sorted(self._wire_faults.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan seed={self.spec.seed} {len(self._wire_faults)} wires>"


def robustness_counters(cluster) -> dict:
    """Cluster-wide fault/recovery counters, JSON-safe.

    The single aggregation every surface shares: fault-suite report rows,
    the chaos campaign's invariant checks, and ``Session.report()``'s
    outcome table all read this.  Recovery is counted per stack: the
    INIC protocol's ``retransmits``/``nacks_sent`` and host TCP's
    ``tcp_timeouts``/``tcp_fast_retransmits``/``tcp_retransmitted_frames``.
    When the scenario schedules component faults the payload gains
    ``components`` (reroute/failover/partition accounting) and
    ``conservation`` (the frame ledger) sub-dicts; link-fault-only
    payloads keep their flat shape.
    """
    out: dict = {
        "frames_dropped": 0,
        "frames_corrupted": 0,
        "bytes_dropped": 0.0,
    }
    plan = cluster.fault_plan
    if plan is not None:
        out.update(plan.link_counters())
    out["switch_dropped_frames"] = int(cluster.switch.total_dropped())
    out["switch_dropped_bytes"] = float(cluster.switch.total_dropped_bytes())
    rx_drops = 0
    rx_drop_bytes = 0.0
    retransmits = nacks = aborts = config_failures = 0
    retransmitted_bytes = 0.0
    tcp_timeouts = tcp_fast = tcp_frames = 0
    for node in cluster.nodes:
        if node.nic is not None:
            rx_drops += node.nic.stats.rx_ring_drops
            rx_drop_bytes += node.nic.stats.rx_ring_drop_bytes
        if node.tcp is not None:
            s = node.tcp.stats
            tcp_timeouts += s.timeouts
            tcp_fast += s.fast_retransmits
            tcp_frames += s.retransmitted_frames
        if node.inic is not None:
            s = node.inic.stats
            retransmits += s.retransmits
            retransmitted_bytes += s.retransmitted_bytes
            nacks += s.nacks_sent
            aborts += s.transfer_aborts
            config_failures += node.inic.fabric.config_failures
    out.update(
        rx_ring_drops=rx_drops,
        rx_ring_drop_bytes=float(rx_drop_bytes),
        retransmits=retransmits,
        retransmitted_bytes=float(retransmitted_bytes),
        nacks_sent=nacks,
        transfer_aborts=aborts,
        config_failures=config_failures,
        tcp_timeouts=tcp_timeouts,
        tcp_fast_retransmits=tcp_fast,
        tcp_retransmitted_frames=tcp_frames,
    )
    if plan is not None and plan.spec.components:
        component_counters = getattr(
            cluster.switch, "component_counters", None
        )
        if component_counters is not None:
            out["components"] = component_counters()
        conservation = getattr(cluster.switch, "conservation_counters", None)
        if conservation is not None:
            out["conservation"] = conservation()
    return out
