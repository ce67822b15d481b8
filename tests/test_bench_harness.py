"""Tests for the benchmark harness and report modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.bench import (
    Experiment,
    Scale,
    ascii_plot,
    render_table,
    shape_summary,
    to_markdown,
)
from repro.bench.figures import fig4a, fig4b, fig5a, fig5b
from repro.errors import ApplicationError
from repro.models.speedup import Series


def small_exp():
    e = Experiment("figX", "demo", "P", "speedup")
    e.add(Series("a", [1, 2, 4], [1.0, 1.9, 3.5]))
    e.add(Series("b", [1, 2, 4], [1.0, 1.2, 1.5]))
    e.notes.append("a note")
    return e


# --- harness ------------------------------------------------------------------------
def test_scales_have_distinct_sizes():
    paper, bench, ci = Scale.paper(), Scale.bench(), Scale.ci()
    assert paper.sort_keys > bench.sort_keys > ci.sort_keys
    assert max(paper.fft_sizes) > max(ci.fft_sizes)


def test_render_table_contains_all_points():
    out = render_table(small_exp())
    assert "figX" in out
    assert "3.50" in out and "1.20" in out
    assert "a note" in out


def test_series_named_lookup():
    e = small_exp()
    assert e.series_named("a").at(4) == 3.5
    with pytest.raises(ApplicationError):
        e.series_named("zzz")


def test_render_table_handles_missing_points():
    e = small_exp()
    e.add(Series("partial", [2], [9.0]))
    out = render_table(e)
    assert "9.00" in out
    assert "-" in out  # missing cells rendered as dashes


# --- report ---------------------------------------------------------------------------
def test_ascii_plot_renders():
    out = ascii_plot(small_exp())
    assert "figX" in out
    assert "o = a" in out
    assert "x = b" in out


def test_to_markdown_table():
    md = to_markdown(small_exp())
    assert md.count("|") > 10
    assert "**figX" in md
    assert "*a note*" in md


def test_shape_summary():
    s = shape_summary(Series("s", [1, 2, 3], [1.0, 3.0, 2.0]))
    assert s["peak"] == 3.0
    assert s["first"] == 1.0 and s["last"] == 2.0
    assert s["rising_fraction"] == pytest.approx(0.5)


# --- figure functions at CI scale (cheap smoke coverage) -----------------------------------
@pytest.mark.parametrize("fig", [fig4a, fig4b, fig5a, fig5b])
def test_analytic_figures_produce_series(fig):
    exp = fig(Scale.ci())
    assert exp.series
    for s in exp.series:
        assert len(s.x) == len(s.y) > 0
        assert all(v >= 0 for v in s.y)


# --- DES vs the analytic model ---------------------------------------------------------------
def test_des_and_model_agree_for_gige_fft():
    """The packet-level DES and the calibrated closed form describe the
    same machine: within a factor-of-2 band across configurations."""
    import numpy as np

    from repro.apps.fft import baseline_fft2d
    from repro.cluster import Cluster, ClusterSpec, athlon_node
    from repro.models import gige_fft_time

    g = np.random.default_rng(1)
    m = g.standard_normal((256, 256)) + 1j * g.standard_normal((256, 256))
    h = athlon_node().hierarchy()
    for p in (2, 8):
        cluster = Cluster.build(ClusterSpec(n_nodes=p))
        _, res = baseline_fft2d(cluster, m)
        model = gige_fft_time(256, p, h)
        dev = (res.makespan - model) / model
        assert abs(dev) < 1.0, f"DES vs model deviation {dev:.2f} at P={p}"


# --- package CLIs -------------------------------------------------------------------
def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("module", ["repro.bench.sweep", "repro.bench.figures"])
def test_bench_cli_module_is_imported_once_under_dash_m(module):
    """A package must not import its CLI modules, or ``-m`` runs their
    bodies twice (runpy warns "found in sys.modules")."""
    out = _python("-m", module, "--help")
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout


def test_bench_package_exports_resolve_lazily():
    out = _python(
        "-c",
        "import sys, repro.bench as b\n"
        "assert 'repro.bench.sweep' not in sys.modules\n"
        "assert 'repro.bench.figures' not in sys.modules\n"
        "from repro.bench import SweepEngine, fig8b, all_figures\n"
        "from repro.bench.sweep import SweepEngine as E\n"
        "assert SweepEngine is E\n"
        "try:\n"
        "    b.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('missing attribute did not raise')\n",
    )
    assert out.returncode == 0, out.stderr
