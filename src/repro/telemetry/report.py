"""Human-readable rendering of registry snapshots and timelines."""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry
from .timeline import Timeline

__all__ = [
    "render_metrics",
    "render_outcomes",
    "render_snapshot",
    "render_utilization",
]


def _fmt(value: float, unit: str) -> str:
    if unit == "s":
        return f"{value * 1e3:.3f} ms"
    if unit == "B":
        if value >= 1 << 20:
            return f"{value / (1 << 20):.2f} MiB"
        if value >= 1 << 10:
            return f"{value / (1 << 10):.2f} KiB"
        return f"{value:.0f} B"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{int(value)}"


def render_metrics(
    registry: MetricsRegistry, prefix: Optional[str] = None
) -> str:
    """The registry as an aligned ``name  kind  value`` table."""
    rows = []
    for inst in registry.instruments():
        if prefix is not None:
            dotted = prefix + "."
            if inst.name != prefix and not inst.name.startswith(dotted):
                continue
        rows.append((inst.name, inst.kind, _fmt(inst.value(), inst.unit)))
    if not rows:
        return "(no instruments registered)"
    w_name = max(len(r[0]) for r in rows)
    w_kind = max(len(r[1]) for r in rows)
    lines = [f"{'instrument':<{w_name}}  {'kind':<{w_kind}}  value"]
    lines.append(f"{'-' * w_name}  {'-' * w_kind}  {'-' * 12}")
    for name, kind, value in rows:
        lines.append(f"{name:<{w_name}}  {kind:<{w_kind}}  {value}")
    return "\n".join(lines)


def _guess_unit(name: str) -> str:
    """Unit inference for detached snapshots (no live instruments): the
    naming convention puts ``*_time``/``.time`` on busy seconds and
    ``*bytes`` on byte counters."""
    if name.endswith(("_time", ".time")):
        return "s"
    if name.endswith("bytes") or name.endswith(".bytes"):
        return "B"
    return ""


def render_snapshot(metrics: dict, prefix: Optional[str] = None) -> str:
    """A flat ``{instrument: value}`` snapshot (e.g. out of a sweep
    report) as an aligned table — for when the registry is long gone."""
    rows = []
    for name in sorted(metrics):
        if prefix is not None:
            dotted = prefix + "."
            if name != prefix and not name.startswith(dotted):
                continue
        rows.append((name, _fmt(metrics[name], _guess_unit(name))))
    if not rows:
        return "(no instruments recorded)"
    w_name = max(len(r[0]) for r in rows)
    lines = [f"{'instrument':<{w_name}}  value", f"{'-' * w_name}  {'-' * 12}"]
    lines.extend(f"{name:<{w_name}}  {value}" for name, value in rows)
    return "\n".join(lines)


def render_outcomes(entry: dict) -> str:
    """Structured transfer-outcome table for a faulted run.

    ``entry`` is either a sweep report scenario row (with ``faults``,
    ``aborted``, ``fallbacks`` keys, and on INIC points
    ``fastpath_fallbacks``: train scatters that took the slow path, by
    reason) or a bare counters dict as returned by
    :func:`repro.faults.robustness_counters`.  Nested ``components``
    and ``conservation`` ledgers render as dotted rows; zero-valued
    counters are kept so absence of a failure mode is visible too.
    """
    counters = entry.get("faults", entry) or {}
    rows: list[tuple[str, str]] = []
    if counters is not entry:
        for key in ("aborted", "fallbacks"):
            rows.append((key, _fmt(float(entry.get(key) or 0), "")))
        for reason, count in sorted(entry.get("fastpath_fallbacks", {}).items()):
            rows.append((f"fastpath_fallbacks.{reason}", _fmt(float(count), "")))

    def flatten(prefix: str, doc: dict) -> None:
        for name in sorted(doc):
            value = doc[name]
            if isinstance(value, dict):
                flatten(f"{prefix}{name}.", value)
            else:
                rows.append(
                    (f"{prefix}{name}", _fmt(value, _guess_unit(name)))
                )

    flatten("", counters)
    if not rows:
        return "(no outcome counters recorded)"
    w_name = max(len(r[0]) for r in rows)
    lines = [f"{'outcome':<{w_name}}  value", f"{'-' * w_name}  {'-' * 12}"]
    lines.extend(f"{name:<{w_name}}  {value}" for name, value in rows)
    return "\n".join(lines)


def render_utilization(timeline: Timeline, width: int = 30) -> str:
    """Timeline tracks as a bar chart: busy seconds + busy fraction."""
    tracks = timeline.phase_tracks() + timeline.component_tracks()
    if not tracks:
        return "(empty timeline)"
    w_name = max(len(t.name) for t in tracks)
    lines = [
        f"timeline over {timeline.now * 1e3:.3f} ms simulated",
        f"{'track':<{w_name}}  {'busy':>12}  {'util':>6}  ",
    ]
    for track in tracks:
        frac = min(1.0, max(0.0, track.utilization))
        bar = "#" * round(frac * width)
        lines.append(
            f"{track.name:<{w_name}}  {track.busy_time * 1e3:>9.3f} ms"
            f"  {track.utilization * 100:>5.1f}%  |{bar:<{width}}|"
        )
    return "\n".join(lines)
