"""Unit + property tests for the from-scratch FFT kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.fft import serial
from repro.apps.fft import (
    FFTPlan,
    clear_plan_cache,
    fft1d,
    fft2d,
    ifft1d,
    ifft2d,
    is_power_of_two,
    plan_dft,
)
from repro.errors import ApplicationError

rng = np.random.default_rng(42)


def random_complex(*shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- correctness vs the numpy oracle ------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 256, 1024])
def test_fft1d_matches_oracle_pow2(n):
    x = random_complex(n)
    assert np.allclose(fft1d(x), np.fft.fft(x), atol=1e-8)


@pytest.mark.parametrize("n", [3, 5, 12, 100, 37, 129])
def test_fft1d_matches_oracle_bluestein(n):
    x = random_complex(n)
    assert np.allclose(fft1d(x), np.fft.fft(x), atol=1e-8)


def test_fft1d_vectorized_over_rows():
    x = random_complex(7, 64)
    assert np.allclose(fft1d(x), np.fft.fft(x, axis=-1), atol=1e-8)


def test_fft1d_along_other_axis():
    x = random_complex(16, 5)
    assert np.allclose(fft1d(x, axis=0), np.fft.fft(x, axis=0), atol=1e-8)


@pytest.mark.parametrize("n", [2, 8, 15, 64])
def test_ifft_inverts_fft(n):
    x = random_complex(n)
    assert np.allclose(ifft1d(fft1d(x)), x, atol=1e-8)


@pytest.mark.parametrize("n", [4, 8, 32, 64])
def test_fft2d_matches_oracle(n):
    x = random_complex(n, n)
    assert np.allclose(fft2d(x), np.fft.fft2(x), atol=1e-8)


def test_ifft2d_round_trip():
    x = random_complex(16, 16)
    assert np.allclose(ifft2d(fft2d(x)), x, atol=1e-8)


def test_fft2d_real_input():
    x = rng.standard_normal((32, 32))
    assert np.allclose(fft2d(x), np.fft.fft2(x), atol=1e-8)


def test_fft2d_requires_matrix():
    with pytest.raises(ApplicationError):
        fft2d(np.zeros(8))


def test_fft1d_rejects_empty():
    with pytest.raises(ApplicationError):
        fft1d(np.zeros(0))


# --- property tests --------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_parseval_energy_conservation(n):
    """Parseval: sum |x|^2 == sum |X|^2 / n for any length."""
    local = np.random.default_rng(n).standard_normal(n)
    X = fft1d(local)
    assert np.isclose(
        np.sum(np.abs(local) ** 2), np.sum(np.abs(X) ** 2) / n, rtol=1e-6
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=128))
def test_linearity(n):
    g = np.random.default_rng(n)
    x, y = g.standard_normal(n), g.standard_normal(n)
    assert np.allclose(fft1d(x + 2 * y), fft1d(x) + 2 * fft1d(y), atol=1e-7)


def test_impulse_transforms_to_ones():
    x = np.zeros(64)
    x[0] = 1.0
    assert np.allclose(fft1d(x), np.ones(64), atol=1e-10)


def test_shift_theorem():
    n = 128
    x = rng.standard_normal(n)
    shifted = np.roll(x, 1)
    k = np.arange(n)
    phase = np.exp(-2j * np.pi * k / n)
    assert np.allclose(fft1d(shifted), fft1d(x) * phase, atol=1e-8)


# --- plans --------------------------------------------------------------------------
def test_plan_cache_reuses():
    clear_plan_cache()
    p1 = plan_dft(256)
    p2 = plan_dft(256)
    assert p1 is p2


def test_plan_flop_counts():
    clear_plan_cache()
    assert plan_dft(1024).flops == pytest.approx(5 * 1024 * 10)
    assert plan_dft(100).flops > plan_dft(64).flops  # Bluestein overhead


def test_plan_execute_checks_size():
    plan = plan_dft(32)
    with pytest.raises(ApplicationError):
        plan.execute(np.zeros(16))


def test_plan_execute_works():
    plan = plan_dft(64)
    x = random_complex(64)
    assert np.allclose(plan.execute(x), np.fft.fft(x), atol=1e-8)


def test_is_power_of_two():
    assert is_power_of_two(1) and is_power_of_two(1024)
    assert not is_power_of_two(0) and not is_power_of_two(12)


# --- memoised size-only tables ------------------------------------------------------
def _reference_fft_pow2(x, sign):
    """The radix-2 loop with its tables built fresh on every pass."""
    n = x.shape[-1]
    bits = n.bit_length() - 1
    rev = np.array([int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(n)])
    a = np.array(x, dtype=np.complex128)[..., rev]
    half = 1
    while half < n:
        step = half * 2
        w = np.exp(sign * 2j * np.pi * np.arange(half) / step)
        b = a.reshape(*a.shape[:-1], n // step, step)
        even = b[..., :half]
        odd = b[..., half:] * w
        upper, lower = even + odd, even - odd
        b[..., :half] = upper
        b[..., half:] = lower
        half = step
    return a


def test_cached_fft_tables_are_shared_and_read_only():
    w = serial._twiddles(8, 16, -1.0)
    assert serial._twiddles(8, 16, -1.0) is w
    rev = serial._bit_reversal_indices(64)
    assert serial._bit_reversal_indices(64) is rev
    for table in (w, rev):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("n", [2, 8, 64, 512])
def test_fft1d_with_cached_tables_is_bit_identical(n):
    x = random_complex(3, n)
    serial._twiddles.cache_clear()
    serial._bit_reversal_indices.cache_clear()
    for _ in range(2):  # a cold and a warm cache
        assert np.array_equal(fft1d(x), _reference_fft_pow2(x, -1.0))
        assert np.array_equal(ifft1d(x), _reference_fft_pow2(x, +1.0) / n)
