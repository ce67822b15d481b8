"""From-scratch FFT kernels.

A complete 1-D/2-D complex FFT implemented for this reproduction (the
paper's baseline is FFTW; we implement the same algorithmic structure
rather than linking an external library):

* iterative radix-2 Cooley-Tukey for power-of-two sizes, vectorized
  over leading axes so a whole panel of rows transforms in one sweep
  (the guides' "vectorize the loop over rows" idiom);
* Bluestein's chirp-z algorithm for arbitrary sizes (built on the
  radix-2 kernel);
* a 2-D transform via the row-FFT / transpose / row-FFT / transpose
  decomposition of Section 3.1 — the exact step structure the parallel
  implementations distribute.

Correctness is cross-checked against ``numpy.fft`` in the test suite;
``numpy.fft`` is never used in library code.
"""

from __future__ import annotations

import functools

import numpy as np

from ...errors import ApplicationError

__all__ = ["fft1d", "ifft1d", "fft2d", "ifft2d", "is_power_of_two"]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# The two size-only tables below are memoised: a 2-D transform runs the
# same row length hundreds of times (once per row panel and phase).  The
# cached arrays are read-only, so no caller can corrupt a shared table;
# the bounds keep a process that transforms many sizes from growing
# without limit (one length n needs log2(n) twiddle vectors).


@functools.lru_cache(maxsize=16)
def _bit_reversal_indices(n: int) -> np.ndarray:
    """Permutation indices for the radix-2 reordering pass."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros_like(idx)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.flags.writeable = False
    return rev


@functools.lru_cache(maxsize=128)
def _twiddles(half: int, step: int, sign: float) -> np.ndarray:
    w = np.exp(sign * 2j * np.pi * np.arange(half) / step)
    w.flags.writeable = False
    return w


def _fft_pow2(x: np.ndarray, sign: float) -> np.ndarray:
    """Iterative radix-2 over the last axis (n a power of two)."""
    n = x.shape[-1]
    a = np.ascontiguousarray(x, dtype=np.complex128)[..., _bit_reversal_indices(n)]
    lead = a.shape[:-1]
    half = 1
    while half < n:
        step = half * 2
        w = _twiddles(half, step, sign)
        b = a.reshape(*lead, n // step, step)
        even = b[..., :half]
        odd = b[..., half:] * w
        upper = even + odd
        lower = even - odd
        b[..., :half] = upper
        b[..., half:] = lower
        half = step
    return a


def _fft_bluestein(x: np.ndarray, sign: float) -> np.ndarray:
    """Chirp-z transform: arbitrary n via a 2n-padded power-of-two FFT."""
    n = x.shape[-1]
    a = np.asarray(x, dtype=np.complex128)
    k = np.arange(n)
    chirp = np.exp(sign * 1j * np.pi * (k * k % (2 * n)) / n)
    m = 1 << (2 * n - 1).bit_length()
    fa = np.zeros(a.shape[:-1] + (m,), dtype=np.complex128)
    fa[..., :n] = a * chirp
    fb = np.zeros(m, dtype=np.complex128)
    fb[:n] = np.conj(chirp)
    fb[m - n + 1 :] = np.conj(chirp[1:][::-1])
    conv = _ifft_pow2_unscaled(_fft_pow2(fa, -1.0) * _fft_pow2(fb, -1.0)) / m
    return conv[..., :n] * chirp


def _ifft_pow2_unscaled(x: np.ndarray) -> np.ndarray:
    return _fft_pow2(x, +1.0)


def fft1d(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward DFT along ``axis`` (any length)."""
    a = np.asarray(x, dtype=np.complex128)
    if a.shape[axis] == 0:
        raise ApplicationError("cannot transform an empty axis")
    a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    if n == 1:
        out = a.copy()
    elif is_power_of_two(n):
        out = _fft_pow2(a, -1.0)
    else:
        out = _fft_bluestein(a, -1.0)
    return np.moveaxis(out, -1, axis)


def ifft1d(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse DFT along ``axis`` (normalized by 1/n)."""
    a = np.asarray(x, dtype=np.complex128)
    a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    if n == 1:
        out = a.copy()
    elif is_power_of_two(n):
        out = _fft_pow2(a, +1.0) / n
    else:
        out = _fft_bluestein(a, +1.0) / n
    return np.moveaxis(out, -1, axis)


def fft2d(x: np.ndarray) -> np.ndarray:
    """2-D DFT via the Section-3.1 four-step template:
    row FFTs, transpose, row FFTs, transpose."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ApplicationError(f"fft2d expects a matrix, got shape {a.shape}")
    a = fft1d(a, axis=-1)  # step 1: 1D-FFT of each row
    a = a.T  # step 2: transpose
    a = fft1d(a, axis=-1)  # step 3: 1D-FFT of each row
    return np.ascontiguousarray(a.T)  # step 4: transpose back


def ifft2d(x: np.ndarray) -> np.ndarray:
    """Inverse 2-D DFT (same template)."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ApplicationError(f"ifft2d expects a matrix, got shape {a.shape}")
    a = ifft1d(a, axis=-1)
    a = a.T
    a = ifft1d(a, axis=-1)
    return np.ascontiguousarray(a.T)
