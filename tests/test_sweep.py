"""Tests for the parallel sweep engine and its content-addressed cache."""

import json
import math
import os

import pytest

from repro.bench.export import export_csv
from repro.bench.figures import fig8b
from repro.bench.harness import Scale
from repro.bench import sweep
from repro.bench.sweep import (
    WALL_DERIVED,
    PointSpec,
    SweepEngine,
    SweepError,
    build_report,
    canonical_json,
    compare,
    kind_salt,
    perf_points,
    scale_points,
    scheduler_kind,
)

#: a DES scale small enough that a whole fig8b sweep runs in well under
#: a second per point
TINY = Scale(
    name="tiny",
    fft_sizes=(16,),
    fft_procs=(1, 2),
    sort_keys=1 << 10,
    sort_procs=(1, 2, 4),
)


def tiny_spec(seed: int = 2, p: int = 2, name: str = "pt") -> PointSpec:
    return PointSpec(
        "sort-des", name, {"e_init": 1 << 10, "p": p, "card": None, "seed": seed}
    )


# --- spec identity -------------------------------------------------------------------
def test_spec_identity_ignores_name_and_param_order():
    a = PointSpec("sort-des", "a", {"e_init": 64, "p": 2, "card": None, "seed": 1})
    b = PointSpec("sort-des", "b", {"seed": 1, "card": None, "p": 2, "e_init": 64})
    assert a == b
    assert a.spec_hash == b.spec_hash
    assert a.cache_key("s") == b.cache_key("s")


def test_spec_identity_changes_with_any_field():
    base = tiny_spec()
    assert tiny_spec(seed=3).spec_hash != base.spec_hash
    assert tiny_spec(p=4).spec_hash != base.spec_hash


def test_spec_rejects_unknown_kind_and_bad_params():
    with pytest.raises(SweepError):
        PointSpec("no-such-kind", "x", {})
    with pytest.raises(SweepError):
        PointSpec("sort-des", "x", {"fn": object()})


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_kind_salt_differs_between_families():
    assert kind_salt("sort-des") != kind_salt("sort-analytic")
    with pytest.raises(SweepError):
        kind_salt("no-such-kind")


# --- cache hit/miss/invalidation ------------------------------------------------------
def test_des_fingerprint_covers_the_c_sources():
    """The native kernels are model code too: editing any C source
    must invalidate every cached DES point."""
    files = {
        os.path.relpath(path, os.path.dirname(sweep.__file__))
        for module in sweep._FAMILY_DEPS["des"]
        for path in sweep._module_files(module)
    }
    assert os.path.join("..", "sim", "_csched.c") in files
    assert os.path.join("..", "net", "_cadmit.c") in files
    assert os.path.join("..", "apps", "sort", "_cbucket.c") in files


def test_cache_hit_on_identical_spec(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    r1 = engine.run([tiny_spec()])["pt"]
    assert not r1.cached
    assert engine.last_run.executed == 1 and engine.last_run.hits == 0

    r2 = engine.run([tiny_spec()])["pt"]
    assert r2.cached
    assert engine.last_run.executed == 0 and engine.last_run.hits == 1
    assert engine.last_run.hit_rate == 1.0
    assert r2.value == r1.value

    # the cache file is content-addressed by spec + salt
    key = tiny_spec().cache_key(kind_salt("sort-des"))
    assert (tmp_path / f"{key}.json").exists()


def test_cache_miss_when_spec_field_changes(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run([tiny_spec(seed=2)])
    engine.run([tiny_spec(seed=3)])
    assert engine.last_run.executed == 1  # different seed: recomputed


def test_cache_miss_when_salt_changes(tmp_path):
    v1 = SweepEngine(jobs=1, cache_dir=str(tmp_path), salt_override="model-v1")
    v1.run([tiny_spec()])
    # same spec, same cache dir, same salt: hit
    SweepEngine(jobs=1, cache_dir=str(tmp_path), salt_override="model-v1").run(
        [tiny_spec()]
    )
    v2 = SweepEngine(jobs=1, cache_dir=str(tmp_path), salt_override="model-v2")
    v2.run([tiny_spec()])
    assert v2.last_run.executed == 1  # new model version: recomputed


def test_force_recomputes_and_rewrites(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run([tiny_spec()])
    forced = SweepEngine(jobs=1, cache_dir=str(tmp_path), force=True)
    r = forced.run([tiny_spec()])["pt"]
    assert not r.cached
    assert forced.last_run.executed == 1


def test_corrupt_cache_file_is_a_miss(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run([tiny_spec()])
    key = tiny_spec().cache_key(kind_salt("sort-des"))
    (tmp_path / f"{key}.json").write_text("{not json")
    r = engine.run([tiny_spec()])["pt"]
    assert not r.cached  # recomputed, not crashed


# --- dedup and naming ----------------------------------------------------------------
def test_shared_identity_computed_once_under_both_names(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    out = engine.run([tiny_spec(name="first"), tiny_spec(name="alias")])
    assert engine.last_run.executed == 1
    assert out["first"].value == out["alias"].value


def test_duplicate_name_for_distinct_identity_rejected():
    engine = SweepEngine(jobs=1, cache_dir=None)
    with pytest.raises(SweepError):
        engine.run([tiny_spec(seed=2, name="pt"), tiny_spec(seed=3, name="pt")])


# --- repeats -------------------------------------------------------------------------
def test_repeats_record_median_and_keep_output_exact(tmp_path):
    once = SweepEngine(jobs=1, cache_dir=None).run([tiny_spec()])["pt"]
    thrice = SweepEngine(jobs=1, cache_dir=None, repeats=3).run([tiny_spec()])["pt"]
    assert thrice.repeats == 3
    assert thrice.value == once.value  # events and makespan are exact


# --- parallel vs serial determinism ---------------------------------------------------
def test_parallel_sweep_bit_identical_to_serial(tmp_path):
    serial = SweepEngine(jobs=1, cache_dir=str(tmp_path / "serial"))
    parallel = SweepEngine(jobs=2, cache_dir=str(tmp_path / "parallel"))

    exp_serial = fig8b(TINY, engine=serial)
    exp_parallel = fig8b(TINY, engine=parallel)
    assert parallel.last_run.executed == parallel.last_run.unique > 1

    p_ser = export_csv(exp_serial, str(tmp_path / "out_serial"))
    p_par = export_csv(exp_parallel, str(tmp_path / "out_parallel"))
    with open(p_ser, "rb") as a, open(p_par, "rb") as b:
        assert a.read() == b.read()  # byte-identical CSV


def test_parallel_warm_rerun_is_all_hits(tmp_path):
    engine = SweepEngine(jobs=2, cache_dir=str(tmp_path))
    specs = perf_points(TINY)
    first = engine.run(specs)
    second = engine.run(specs)
    assert engine.last_run.executed == 0
    assert engine.last_run.hit_rate == 1.0
    assert {n: r.value for n, r in second.items()} == {
        n: r.value for n, r in first.items()
    }


# --- perf suite through the engine ----------------------------------------------------
PERF_CLI = ["--suite", "perf", "--jobs", "1", "--no-cache", "--repeats", "1"]
PERF_REFERENCE = os.path.join("benchmarks", "perf_reference.json")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def perf_doc(tmp_path_factory):
    """One serial, uncached ci perf run through the sweep CLI; its report."""
    out = tmp_path_factory.mktemp("perf") / "BENCH_perf.json"
    assert sweep.main([*PERF_CLI, "--out", str(out)]) == 0
    return _load(out)


def test_perf_report_shape_and_reference_compat(perf_doc):
    doc = perf_doc
    assert doc["scale"] == "ci"
    assert sorted(doc["scenarios"]) == sorted(
        spec.name for spec in perf_points(Scale.ci())
    )
    for entry in doc["scenarios"].values():
        assert entry["events"] > 0
        assert "makespan" in entry and "wall_seconds" in entry
    assert doc["total_events"] == sum(
        e["events"] for e in doc["scenarios"].values()
    )
    # a run compares clean against itself, and detects regressions
    assert compare(doc, doc, tolerance=0.10) == []
    worse = json.loads(json.dumps(doc))
    worse["scenarios"]["sort-gige-p2"]["events"] *= 2
    assert compare(worse, doc, tolerance=0.10) != []  # grown events: regression
    assert compare(doc, worse, tolerance=0.10) == []  # shrunk events: improvement
    # scenario disappearance is a failure
    del worse["scenarios"]["sort-gige-p4"]
    assert any("missing" in f for f in compare(worse, doc, tolerance=0.10))


def test_perf_report_against_committed_reference(perf_doc):
    """The engine reproduces the committed reference's exact event
    counts and makespans (the fidelity canary)."""
    reference = _load(PERF_REFERENCE)
    for name, ref in reference["scenarios"].items():
        cur = perf_doc["scenarios"][name]
        assert cur["events"] == ref["events"], name
        assert cur["makespan"] == pytest.approx(ref["makespan"], rel=0, abs=0), name


def test_perf_check_passes_against_committed_reference(tmp_path):
    out = str(tmp_path / "BENCH_perf.json")
    assert sweep.main([*PERF_CLI, "--out", out, "--check"]) == 0


def test_perf_check_fails_against_halved_reference(tmp_path):
    """A reference whose event counts are half the run's: every scenario
    has grown 100%, far past the 10% tolerance, so ``--check`` exits 1."""
    reference = _load(PERF_REFERENCE)
    for row in reference["scenarios"].values():
        row["events"] //= 2
    halved = tmp_path / "halved.json"
    halved.write_text(json.dumps(reference))
    out = str(tmp_path / "BENCH_perf.json")
    argv = [*PERF_CLI, "--out", out, "--check", "--reference", str(halved)]
    assert sweep.main(argv) == 1


def test_perf_check_fails_on_a_one_ulp_makespan_change(tmp_path):
    """Makespans are gated exactly: a reference whose one makespan is one
    ulp off fails ``--check``, and the one failure names that scenario."""
    reference = _load(PERF_REFERENCE)
    row = reference["scenarios"]["sort-gige-p4"]
    row["makespan"] = math.nextafter(row["makespan"], math.inf)
    nudged = tmp_path / "nudged.json"
    nudged.write_text(json.dumps(reference))
    out = str(tmp_path / "BENCH_perf.json")
    argv = [*PERF_CLI, "--out", out, "--check", "--reference", str(nudged)]
    assert sweep.main(argv) == 1
    failures = compare(_load(out), reference, tolerance=0.10)
    assert len(failures) == 1 and failures[0].startswith("sort-gige-p4: makespan")


FAULTS_CLI = ["--suite", "faults", "--jobs", "1", "--no-cache", "--repeats", "1"]


def test_faults_check_pins_makespans_to_reference(tmp_path):
    """``--suite faults --check`` gates the committed
    ``faults_reference.json`` as well as recovery: it passes as
    committed, and a reference whose lossy row is one ulp off fails."""
    out = str(tmp_path / "BENCH_faults.json")
    assert sweep.main([*FAULTS_CLI, "--out", out, "--check"]) == 0
    reference = _load(os.path.join("benchmarks", "faults_reference.json"))
    row = reference["scenarios"]["sort-faults-loss0.01"]
    assert row["faults"]["frames_dropped"] > 0
    row["makespan"] = math.nextafter(row["makespan"], math.inf)
    nudged = tmp_path / "nudged.json"
    nudged.write_text(json.dumps(reference))
    argv = [*FAULTS_CLI, "--out", out, "--check", "--reference", str(nudged)]
    assert sweep.main(argv) == 1
    failures = compare(_load(out), reference, tolerance=0.10)
    assert failures == [
        f"sort-faults-loss0.01: makespan changed {row['makespan']!r} -> "
        f"{_load(out)['scenarios']['sort-faults-loss0.01']['makespan']!r} "
        "(must be identical)"
    ]


def test_wall_cached_row_wall_fields_are_invisible_to_compare(perf_doc):
    """A cached row's wall was measured by whichever host filled the
    cache: its wall-derived fields never reach the gate, whatever they
    hold, while its event count still does."""
    name = "sort-gige-p2"
    row = perf_doc["scenarios"][name]
    assert WALL_DERIVED <= set(row)
    cached = {**row, "wall_cached": True}
    assert WALL_DERIVED.isdisjoint(sweep._gateable(cached))
    assert sweep._gateable(row) is row  # measured here: nothing stripped
    for garbage in ("not-a-number", None, -1.0):
        current = json.loads(json.dumps(perf_doc))
        current["scenarios"][name] = {
            **cached, **{field: garbage for field in WALL_DERIVED}
        }
        assert compare(current, perf_doc, tolerance=0.10) == []
        assert compare(perf_doc, current, tolerance=0.10) == []
    current["scenarios"][name]["events"] *= 2
    assert compare(current, perf_doc, tolerance=0.10) != []


def test_scale_check_gates_only_the_selected_rows(tmp_path):
    """A trimmed scale run (``--max-p``/``--fabric``) is gated against
    just its own rows of the full-suite reference: corrupting every
    other row changes nothing, corrupting a selected row fails it."""
    selection = ["--max-p", "64", "--fabric", "fattree"]
    selected = {s.name for s in scale_points(Scale.large(), max_p=64, fabrics=["fattree"])}
    reference = _load(os.path.join("benchmarks", "scale_reference.json"))
    assert selected and selected < set(reference["scenarios"])

    def check(victims):
        ref = json.loads(json.dumps(reference))
        for name in victims:
            ref["scenarios"][name]["events"] //= 2
        path = tmp_path / "reference.json"
        path.write_text(json.dumps(ref))
        return sweep.main([
            "--suite", "scale", *selection, "--jobs", "1", "--repeats", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "BENCH_scale.json"),
            "--check", "--reference", str(path),
        ])

    assert check(set(reference["scenarios"]) - selected) == 0
    assert sorted(_load(tmp_path / "BENCH_scale.json")["scenarios"]) == sorted(selected)
    # the warm rerun reads events from the cache; the gate still applies
    assert check({"scale-sort-inic-fattree-p64"}) == 1


def test_build_report_counts_cache(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=str(tmp_path))
    engine.run(perf_points(TINY))
    results = engine.run(perf_points(TINY))
    doc = build_report(results, TINY.name, engine)
    assert doc["cache"]["hits"] == len(results)
    assert doc["cache"]["executed"] == 0
    assert doc["cache"]["hit_rate"] == 1.0
    assert all(e["cached"] for e in doc["scenarios"].values())


# --- scale-out suite -----------------------------------------------------------------
def test_report_records_scheduler_and_throughput(perf_doc, monkeypatch):
    assert perf_doc["scheduler"] == scheduler_kind()
    for entry in perf_doc["scenarios"].values():
        if entry["wall_seconds"] > 0:
            assert entry["events_per_sec"] > 0
    monkeypatch.setenv("REPRO_SIM_SCHEDULER", "heap")
    assert scheduler_kind() == "heap"


def test_scale_points_enumerate_large_suite():
    points = scale_points(Scale.large())
    names = [p.name for p in points]
    assert len(names) == len(set(names)) == 26
    # The original single-star axis is unchanged: {sort,fft} x {gige,inic}
    # x {32,64,128} on the aggregate fabric, same identities as before.
    aggregate = [p for p in points if p.params["fabric"] == "aggregate"]
    assert len(aggregate) == 12
    for p in aggregate:
        assert p.params["p"] in (32, 64, 128)
    assert "scale-sort-inic-p128" in names
    assert "scale-fft-gige-p32" in names
    # Hierarchical topology points extend the suite to 1024 nodes on the
    # fat-tree; the torus (most event-expensive per frame) stops at 256.
    for p in points:
        if p.params["fabric"] == "torus":
            assert p.params["p"] <= 256
    assert "scale-sort-inic-fattree-p1024" in names
    assert "scale-fft-inic-fattree-p1024" in names
    assert "scale-sort-gige-fattree-p64" in names
    assert "scale-sort-inic-torus-p256" in names
    assert "scale-sort-inic-torus-p1024" not in names


def test_scale_points_max_p_trims_without_changing_identity():
    full = {p.name: p for p in scale_points(Scale.large())}
    trimmed = scale_points(Scale.large(), max_p=32)
    assert [p.name for p in trimmed] == [n for n in full if n.endswith("p32")]
    for p in trimmed:
        # Same identity => the smoke job shares cache entries with the
        # full suite and the reference stays comparable after pruning.
        assert p.identity == full[p.name].identity


def test_scale_points_skip_indivisible_partitions():
    odd = Scale(
        name="odd",
        fft_sizes=(96,),  # divisible by 32, not by 64
        fft_procs=(32, 64),
        sort_keys=(1 << 10) + 1,  # indivisible by every p
        sort_procs=(32, 64),
    )
    points = scale_points(odd)
    assert [p.name for p in points] == [
        "scale-fft-gige-p32", "scale-fft-inic-p32"
    ]


def test_fabric_param_threads_to_cluster_spec():
    from repro.core.api import Experiment

    exp = Experiment().nodes(4).fabric("aggregate")
    assert exp.spec.fabric == "aggregate"
    session = exp.build()
    assert type(session.cluster.switch).__name__ == "HierarchicalFabric"
    assert session.cluster.switch.topology.kind == "star"
    with pytest.raises(ValueError, match="unknown fabric"):
        Experiment().fabric("quantum").spec
