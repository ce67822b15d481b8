"""End-to-end application tests: both FFT and sort, both architectures.

These are the functional-correctness contracts of DESIGN.md §5: the
simulated cluster must produce bit-correct results, and the INIC runs
must exhibit the paper's qualitative properties (fewer interrupts,
less host time, no switch loss).
"""

import numpy as np
import pytest

from repro.apps.fft import baseline_fft2d, fft2d, inic_fft2d
from repro.apps.sort import baseline_sort, inic_sort, is_sorted
from repro.cluster import Cluster, ClusterSpec
from repro.core import Experiment
from repro.errors import ApplicationError
from repro.inic import ACEII_PROTOTYPE, IDEAL_INIC


def _acc(n, card=IDEAL_INIC):
    session = Experiment().nodes(n).card(card).build()
    return session.cluster, session.manager


def random_matrix(n, seed=0):
    g = np.random.default_rng(seed)
    return g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))


def random_keys(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2**32, size=n, dtype=np.uint32)


# --- FFT -----------------------------------------------------------------------------
@pytest.mark.parametrize("p", [1, 2, 4])
def test_baseline_fft_correct(p):
    m = random_matrix(32)
    cluster = Cluster.build(ClusterSpec(n_nodes=p))
    out, _ = baseline_fft2d(cluster, m)
    assert np.allclose(out, fft2d(m), atol=1e-8)


@pytest.mark.parametrize("p", [1, 2, 4])
def test_inic_fft_correct(p):
    m = random_matrix(32, seed=p)
    cluster, manager = _acc(p)
    out, _ = inic_fft2d(cluster, manager, m)
    assert np.allclose(out, fft2d(m), atol=1e-8)


def test_inic_fft_correct_on_prototype():
    m = random_matrix(64, seed=9)
    cluster, manager = _acc(4, card=ACEII_PROTOTYPE)
    out, _ = inic_fft2d(cluster, manager, m)
    assert np.allclose(out, fft2d(m), atol=1e-8)


def test_inic_fft_transposes_without_host_interrupt_storm():
    m = random_matrix(64)
    p = 4
    base = Cluster.build(ClusterSpec(n_nodes=p))
    _, base_res = baseline_fft2d(base, m)
    acc, manager = _acc(p)
    _, acc_res = inic_fft2d(acc, manager, m)
    # One completion interrupt per transpose per node (2 transposes +
    # nothing else), vs per-packet interrupt causes on the baseline.
    assert manager.total_completion_interrupts() == 2 * p
    baseline_causes = sum(n.nic.irq.causes_raised for n in base.nodes)
    assert baseline_causes > 10 * manager.total_completion_interrupts()


def test_inic_fft_faster_than_baseline_at_paper_size():
    m = random_matrix(256, seed=3)
    p = 8
    base = Cluster.build(ClusterSpec(n_nodes=p))
    _, base_res = baseline_fft2d(base, m)
    acc, manager = _acc(p)
    _, acc_res = inic_fft2d(acc, manager, m)
    assert acc_res.makespan < base_res.makespan


def test_no_switch_loss_under_inic_protocol():
    """Section 4.1's no-loss claim for the custom protocol."""
    m = random_matrix(128)
    cluster, manager = _acc(8)
    inic_fft2d(cluster, manager, m)
    assert cluster.switch.total_dropped() == 0


def test_fft_rejects_bad_shapes():
    cluster = Cluster.build(ClusterSpec(n_nodes=2))
    with pytest.raises(ApplicationError):
        baseline_fft2d(cluster, np.zeros((4, 8)))


# --- Sort -----------------------------------------------------------------------------
@pytest.mark.parametrize("p", [1, 2, 4])
def test_baseline_sort_correct(p):
    keys = random_keys(2**14, seed=p)
    cluster = Cluster.build(ClusterSpec(n_nodes=p))
    parts, _ = baseline_sort(cluster, keys)
    out = np.concatenate(parts)
    assert is_sorted(out)
    assert np.array_equal(np.sort(keys), out)


@pytest.mark.parametrize("p", [2, 4])
def test_inic_sort_correct_ideal(p):
    keys = random_keys(2**14, seed=10 + p)
    cluster, manager = _acc(p)
    parts, _ = inic_sort(cluster, manager, keys)
    out = np.concatenate(parts)
    assert is_sorted(out)
    assert np.array_equal(np.sort(keys), out)


def test_inic_sort_correct_prototype_two_phase():
    keys = random_keys(2**15, seed=77)
    cluster, manager = _acc(4, card=ACEII_PROTOTYPE)
    parts, res = inic_sort(cluster, manager, keys)
    out = np.concatenate(parts)
    assert is_sorted(out)
    assert np.array_equal(np.sort(keys), out)
    # The prototype card really was configured with the 16-bucket core.
    assert cluster.nodes[0].require_inic().design.has_core("bucket-sort-16")
    # The keys are binned on the host; the core is charged for every key
    # once on the send side and once on the receive side.
    charged = sum(
        node.require_inic().design.core("bucket-sort-16").bytes_processed
        for node in cluster.nodes
    )
    assert charged == 2 * keys.nbytes


@pytest.mark.parametrize(
    "variant, p",
    [
        ("baseline", 1),
        ("baseline", 4),
        ("baseline-sampling", 1),
        ("baseline-sampling", 4),
        ("inic-ideal", 4),
        ("inic-prototype", 4),
    ],
)
def test_sort_leaves_input_untouched_and_unshared(variant, p):
    """Rank shards are views of the caller's keys: the sort must neither
    write into them nor hand one back as a rank's output."""
    keys = random_keys(2**13, seed=5)
    before = keys.copy()
    if variant.startswith("inic"):
        card = ACEII_PROTOTYPE if variant == "inic-prototype" else IDEAL_INIC
        cluster, manager = _acc(p, card=card)
        parts, _ = inic_sort(cluster, manager, keys)
    else:
        cluster = Cluster.build(ClusterSpec(n_nodes=p))
        parts, _ = baseline_sort(
            cluster, keys, balance_sampling=variant == "baseline-sampling"
        )
    assert keys.tobytes() == before.tobytes()
    assert not any(np.shares_memory(part, keys) for part in parts)
    assert np.array_equal(np.concatenate(parts), np.sort(before))


def test_baseline_sort_at_one_rank_sorts_its_phase1_copy_in_place(monkeypatch):
    """At p=1 phase 1 copies the keys once, and that copy is sorted in
    place into the output: no second buffer, the caller's keys intact."""
    from repro.apps.sort import parallel

    copies = []
    split = parallel.phase1_destination_buckets

    def phase1(keys, p):
        buckets = split(keys, p)
        copies.extend(buckets)
        return buckets

    monkeypatch.setattr(parallel, "phase1_destination_buckets", phase1)
    keys = random_keys(2**13, seed=5)
    before = keys.copy()
    (part,), _ = parallel.baseline_sort(Cluster.build(ClusterSpec(n_nodes=1)), keys)
    assert keys.tobytes() == before.tobytes()
    assert part.dtype == np.uint32 and part.tobytes() == np.sort(before).tobytes()
    (copy,) = copies
    assert np.shares_memory(part, copy) and not np.shares_memory(part, keys)


def test_sort_rejects_non_power_of_two_ranks():
    keys = random_keys(3 * 2**10)
    cluster = Cluster.build(ClusterSpec(n_nodes=3))
    with pytest.raises(ApplicationError):
        baseline_sort(cluster, keys)


def test_inic_sort_offloads_bucket_time():
    """INIC eliminates host bucket-sort phases (Fig. 5(b)'s source of
    superlinearity): its trace has no sort-phase1 span."""
    keys = random_keys(2**15)
    p = 4
    base = Cluster.build(ClusterSpec(n_nodes=p))
    _, base_res = baseline_sort(base, keys)
    acc, manager = _acc(p)
    _, acc_res = inic_sort(acc, manager, keys)
    assert "sort-phase1" in base_res.breakdown
    assert "sort-phase1" not in acc_res.breakdown
    assert acc_res.makespan < base_res.makespan


def test_deterministic_repeatability():
    keys = random_keys(2**13)
    results = []
    for _ in range(2):
        cluster = Cluster.build(ClusterSpec(n_nodes=4))
        _, res = baseline_sort(cluster, keys)
        results.append(res.makespan)
    assert results[0] == results[1]
