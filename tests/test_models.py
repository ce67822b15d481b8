"""Tests for the Section-4 analytical models and speedup helpers."""

import pytest

from repro.cluster import athlon_node
from repro.errors import ApplicationError
from repro.models import (
    DEFAULT_PARAMS,
    Series,
    crossover_point,
    fe_fft_time,
    fft_compute_total,
    gige_fft_time,
    gige_sort_time,
    inic_fft_time,
    inic_sort_time,
    inic_transpose_time,
    partition_bytes,
    receive_buckets,
    serial_fft_time,
    serial_sort_time,
    sort_partition_bytes,
    speedup_series,
    t_inic,
    tcp_alltoall_time,
)
from repro.models.fft_model import t_dfg, t_dtc, t_dtg, t_dth
from repro.models.sort_model import (
    sort_t_dfg,
    sort_t_dtc,
    sort_t_dtg,
    sort_t_dth,
)
from repro.units import MiB

H = athlon_node().hierarchy()
P = DEFAULT_PARAMS


# --- Eq. (5)-(10): FFT model -------------------------------------------------------
def test_eq5_partition_bytes():
    # S = rows^2 * 16 / P
    assert partition_bytes(512, 4) == 512 * 512 * 16 / 4


def test_eq6_to_eq9_term_values():
    s = 4 * MiB
    p = 8
    assert t_dtc(s, p) == pytest.approx((s / p) / (80 * MiB))
    assert t_dtg(s, p) == pytest.approx((s / p) / (90 * MiB))
    assert t_dfg(s, p) == pytest.approx((7 * s / 8) / (90 * MiB))
    assert t_dth(s) == pytest.approx(s / (80 * MiB))


def test_eq10_transpose_is_twice_the_sum():
    s = partition_bytes(512, 8)
    expected = 2 * (t_dtc(s, 8) + t_dtg(s, 8) + t_dfg(s, 8) + t_dth(s))
    assert inic_transpose_time(512, 8) == pytest.approx(expected)


def test_inic_fft_time_decomposes():
    total = inic_fft_time(512, 8, H)
    assert total == pytest.approx(
        fft_compute_total(512, 8, H) + inic_transpose_time(512, 8)
    )


def test_fft_compute_has_cache_kinks():
    """Fig. 4(b): per-element compute rate improves when the partition
    drops into a faster level."""
    per_row = [
        fft_compute_total(512, p, H) * p for p in (1, 2, 4, 8, 16)
    ]  # normalized: P * T = 2 * rows * T1D if rate were flat
    assert min(per_row) < max(per_row)  # rate is NOT flat across P
    # Normalized work is non-increasing as partitions shrink into cache.
    assert all(a >= b - 1e-12 for a, b in zip(per_row, per_row[1:]))


def test_serial_fft_time_positive_and_larger_than_compute():
    assert serial_fft_time(256, H) > fft_compute_total(256, 1, H)


# --- Eq. (11)-(17): sort model --------------------------------------------------------
def test_eq12_partition():
    assert sort_partition_bytes(2**20, 4) == 4 * 2**20 / 4


def test_eq13_to_16_term_values():
    assert sort_t_dtc(16) == pytest.approx(16 * 1024 / (80 * MiB))
    assert sort_t_dtg(16) == pytest.approx(16 * 1024 / (90 * MiB))
    assert sort_t_dfg(128) == pytest.approx(128 * 65536 / (90 * MiB))
    assert sort_t_dth(4 * MiB) == pytest.approx(4 * MiB / (80 * MiB))


def test_eq17_t_inic_is_sum_of_terms():
    e, p = 2**24, 8
    n = receive_buckets(e, p)
    s = sort_partition_bytes(e, p)
    expected = sort_t_dtc(p) + sort_t_dtg(p) + sort_t_dfg(n) + sort_t_dth(s)
    assert t_inic(e, p) == pytest.approx(expected)


def test_receive_buckets_minimum_128():
    assert receive_buckets(2**26, 16) >= 128


def test_inic_sort_superlinear_at_paper_scale():
    e = P.sort_total_keys
    t1 = serial_sort_time(e, H)
    for p in (2, 4, 8, 16):
        assert t1 / inic_sort_time(e, p, H) > p


def test_gige_sort_sublinear():
    e = P.sort_total_keys
    t1 = serial_sort_time(e, H)
    for p in (4, 8, 16):
        assert t1 / gige_sort_time(e, p, H) < p


def test_serial_sort_bucket_dominated():
    """Section 4.2: the serial bucket sort exceeds 5 seconds."""
    e = P.sort_total_keys
    from repro.models import bucket_sort_time

    assert bucket_sort_time(P, H, e, receive_buckets(e, 1)) > 5.0


# --- baseline closed form ----------------------------------------------------------------
def test_tcp_alltoall_time_structure():
    assert tcp_alltoall_time(1000, 1, 1e6, 1e-3) == 0.0
    t2 = tcp_alltoall_time(1_000_000, 2, 1e6, 0.0)
    assert t2 == pytest.approx(0.5)  # half the partition crosses
    # Overhead term scales with P-1.
    base = tcp_alltoall_time(8, 16, 1e9, 1e-3)
    assert base == pytest.approx(15e-3, rel=0.01)


def test_fe_slower_than_gige():
    for p in (2, 4, 8):
        assert fe_fft_time(256, p, H) > gige_fft_time(256, p, H)


# --- speedup helpers ------------------------------------------------------------------------
def test_speedup_series():
    s = speedup_series("x", [1, 2, 4], [10.0, 5.0, 2.5], 10.0)
    assert s.y == [1.0, 2.0, 4.0]
    assert s.at(4) == 4.0


def test_speedup_series_validation():
    with pytest.raises(ApplicationError):
        speedup_series("x", [1], [1.0], 0.0)
    with pytest.raises(ApplicationError):
        speedup_series("x", [1], [0.0], 1.0)
    with pytest.raises(ApplicationError):
        Series("bad", [1, 2], [1.0])


def test_crossover_point():
    a = Series("a", [1, 2, 4, 8], [0.5, 0.8, 1.2, 2.0])
    b = Series("b", [1, 2, 4, 8], [1.0, 1.0, 1.0, 1.0])
    assert crossover_point(a, b) == 4
    c = Series("c", [1, 2], [0.1, 0.2])
    assert crossover_point(c, b) is None


def test_series_at_missing_x():
    s = Series("s", [1.0], [2.0])
    with pytest.raises(ApplicationError):
        s.at(3.0)
