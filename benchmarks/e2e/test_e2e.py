"""Self-test of the end-to-end benchmark (slow: about two minutes).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_e2e.py

It checks that the benchmark prints exactly the metrics BENCHMARK.json
declares, that its verification rejects wrong outputs, and that at seed
2 its points reproduce the committed scale-suite and Fig. 8 results.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads as wl

ROOT = run.ROOT


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=300,
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def seed2() -> dict:
    """One untimed-protocol iteration of every workload at seed 2."""
    return {name: run.run_child(name, 2) for name in run.K}


def _makespans(record: dict) -> dict:
    return {p["name"]: p["makespan"] for p in record["points"]}


def test_tables_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.K) == list(wl.WORKLOADS)
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(m["name"], m["unit"], m["bound"]) for m in spec["end_to_end"]] == [
        (name, unit, bound) for name, unit, bound, _ in run.END_TO_END if name in run.GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _benchmark_json()
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    line = _run("--workload", "fft-tcp-aggregate", "--seed", "5", "--trace", trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_verification_rejects_corrupted_output():
    sort = wl.Point("sort", "sort", 4096, 4)
    keys = wl.make_input(sort, 2)
    good = np.sort(keys)
    parts = np.array_split(good.copy(), 4)
    assert wl.verify(sort, parts, good) is None
    parts[1][[0, -1]] = parts[1][[-1, 0]]
    assert wl.verify(sort, parts, good) is not None
    assert wl.verify(sort, parts[:3], good) is not None

    fft = wl.Point("fft", "fft", 32, 4)
    ref = np.fft.fft2(wl.make_input(fft, 2))
    out = ref.copy()
    assert wl.verify(fft, out, ref) is None
    out[3, 5] += 1e-6 * np.abs(ref).max()
    assert wl.verify(fft, out, ref) is not None


def test_nondeterministic_iterations_fail():
    point = {"name": "x", "events": 10, "makespan": 1.0, "error": None}
    records = [{"points": [point]}, {"points": [{**point, "events": 11}]}]
    _, failures, failed_points, attempted = run.check_points(records)
    assert attempted == 2 and failed_points == {"x"} and len(failures) == 1


def test_seed2_reproduces_scale_reference(seed2):
    with open(ROOT / "benchmarks" / "scale_reference.json") as fh:
        rows = json.load(fh)["scenarios"]
    for workload, row in (
        ("sort-inic-fattree", "scale-sort-inic-fattree-p256"),
        ("fft-inic-fattree", "scale-fft-inic-fattree-p256"),
        ("fft-tcp-aggregate", "scale-fft-gige-p128"),
    ):
        (point,) = seed2[workload]["points"]
        assert point["error"] is None
        assert (point["events"], point["makespan"]) == (
            rows[row]["events"], rows[row]["makespan"],
        ), workload


def test_fig8_speedups_match_committed_csvs(seed2):
    record = seed2["fig8-wire"]
    assert all(p["error"] is None for p in record["points"])
    ms = _makespans(record)
    tags = {"proto INIC": "aceii-prototype", "GigE": "gige"}
    with open(ROOT / "results" / "fig8b.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        p = int(float(row["P"]))
        t1 = ms["fig8b/gige/e16777216/p1"]
        tp = t1 if p == 1 else ms[f"fig8b/{tags[row['series']]}/e16777216/p{p}"]
        assert t1 / tp == float(row["speedup over one processor"]), row

    tags = {"proto INIC": "aceii-prototype", "Fast Ethernet": "fast-ethernet",
            "GigE": "gigabit-ethernet"}
    with open(ROOT / "results" / "fig8a.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        label, rows_n = row["series"].rsplit(" ", 1)
        p = int(float(row["P"]))
        t1 = ms[f"fig8a/gigabit-ethernet/r{rows_n}/p1"]
        tp = t1 if p == 1 else ms[f"fig8a/{tags[label]}/r{rows_n}/p{p}"]
        assert t1 / tp == float(row["speedup over one processor"]), row


def test_makespan_err_against_reference(seed2):
    reference = run.load_reference()
    err = {
        name: run.makespan_err(
            reference, name, 2,
            {p["name"]: p for p in rec["points"]},
        )
        for name, rec in seed2.items()
    }
    assert err["fft-inic-fattree"] == pytest.approx(3.06e-2, rel=0.01)
    assert err["sort-inic-fattree"] == pytest.approx(3.59e-4, rel=0.01)
    assert err["fft-tcp-aggregate"] == 0.0
    assert err["fig8-wire"] == 0.0
    assert run.makespan_err(reference, "fig8-wire", 7, {}) is None
