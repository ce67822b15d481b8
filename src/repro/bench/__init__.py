"""Benchmark harness: figure definitions, scales and reporting.

The :mod:`.figures` and :mod:`.sweep` exports resolve lazily (PEP 562):
both modules are also CLIs (``python -m repro.bench.sweep``), and an
eager import here would put them in ``sys.modules`` before ``runpy``
executes them as ``__main__``, so their bodies would run twice.
"""

from importlib import import_module

from .harness import Experiment, Scale, render_all, render_table
from .report import ascii_plot, shape_summary, to_markdown

#: lazily imported export -> defining submodule
_LAZY = {
    "all_figures": "figures",
    "fig4a": "figures",
    "fig4b": "figures",
    "fig5a": "figures",
    "fig5b": "figures",
    "fig8a": "figures",
    "fig8b": "figures",
    "PointResult": "sweep",
    "PointSpec": "sweep",
    "SweepEngine": "sweep",
    "SweepStats": "sweep",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Experiment",
    "PointResult",
    "PointSpec",
    "Scale",
    "SweepEngine",
    "SweepStats",
    "all_figures",
    "ascii_plot",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig8a",
    "fig8b",
    "render_all",
    "render_table",
    "shape_summary",
    "to_markdown",
]
