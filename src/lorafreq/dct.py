"""Orthonormal 2D DCT-II and its inverse.

The forward transform is the separable, orthonormally scaled DCT-II:

    F[u,v] = a_m(u) a_n(v) sum_{i,j} x[i,j]
             cos(pi (2i+1) u / (2m)) cos(pi (2j+1) v / (2n))

with a_m(0) = sqrt(1/m) and a_m(u>0) = sqrt(2/m). Under this scaling the
transform is orthogonal, so Frobenius norms (and squared-coefficient
energies) are preserved exactly. ``dct2`` uses a fast path; ``dct2_reference``
evaluates the definition through explicit cosine basis matrices and exists
so tests can cross-check the fast path.

The transform is separable, F = C_m x C_n^T, so the spectrum of a low-rank
update scale * B @ A is scale * (C_m B)(A C_n^T). ``dct2_factored`` takes
the column DCT of the m x r factor and the row DCT of the r x n factor, then
forms one product; the m x n update itself is never built. Every command
gets its spectrum this way: mask through ``dct2_factored``, and analyze,
sweep and correlate by squaring and sorting that product in its own buffer.
``dct2`` of a merged update is the library and test reference for it.

The factor transforms and every inverse (``idct2``, ``scatter_idct2``) run
on ``numpy.fft``; an inverse is computed in place in one m x n buffer. Only
``dct2``, the library and test reference, runs on ``scipy.fft``, imported on
first use: importing scipy costs more than analyzing a BERT-base-sized
adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import Matrix


@dataclass(frozen=True)
class Spectrum:
    """DCT-II coefficients of a matrix, same shape as the source."""

    coefficients: Matrix


def dct2(x: Matrix) -> Spectrum:
    """Forward orthonormal 2D DCT-II."""
    from scipy import fft

    coeffs = fft.dctn(x.array, type=2, norm="ortho")
    return Spectrum(Matrix(coeffs))


def dct2_factored(b: Matrix, a: Matrix, scale: float) -> Spectrum:
    """Spectrum of scale * (b @ a), from the DCTs of the thin factors.

    Equals ``dct2`` of the merged update up to rounding: the coefficients
    differ by at most 8 * eps * scale * ||b||_F * ||a||_F. The scale is
    applied to the product, as the merge applies it, so a scale that would
    overflow or underflow a factor alone stays harmless.
    """
    # The copy stays: without it mask's peak RSS rises (see CHANGES.md).
    return Spectrum(Matrix(_factored_product(b, a, scale)))


def _factored_product(b: Matrix, a: Matrix, scale: float) -> np.ndarray:
    """scale * (C_m b)(a C_n^T) as a new writable C-contiguous array.

    Its entries are not checked: a caller that keeps this buffer instead of
    a Matrix checks that the total energy it sums is finite.
    """
    left = _dct_axis(b.array, axis=0)
    right = _dct_axis(a.array, axis=1)
    coeffs = left @ right
    coeffs *= float(scale)
    return coeffs


def idct2(f: Spectrum) -> Matrix:
    """Inverse of :func:`dct2` (separable orthonormal DCT-III)."""
    return _inverted(np.array(f.coefficients.array))


def scatter_idct2(shape: tuple[int, int], flat_indices, values) -> Matrix:
    """Inverse of a spectrum that is zero outside the given flat indices.

    Allocates one m x n buffer, inverts it in place, and hands it to the
    returned Matrix without a copy; ``values`` is only read.
    """
    m, n = shape
    flat = np.zeros(m * n)
    flat[flat_indices] = values
    return _inverted(flat.reshape(m, n))


def _inverted(buffer: np.ndarray) -> Matrix:
    """The 2-D inverse of a writable C-contiguous spectrum, in its own buffer.

    A non-finite coefficient raises Matrix's ValueError, not a warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        _idct_axis(buffer, axis=1)
        _idct_axis(buffer, axis=0)
    return Matrix(buffer, copy=False)


def _dct_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DCT-II of a 2-D array along one axis, via one complex FFT.

    Makhoul's reordering (IEEE TASSP 1980): with v the even-indexed entries
    followed by the odd-indexed ones reversed, the unscaled DCT-II is
    X[k] = Re(exp(-i pi k / 2N) FFT(v)[k]). Returns a new C-contiguous
    float64 array, which the caller may write to.
    """
    if axis == 0:
        return _dct_axis(x.T, axis=1).T.copy()
    n = x.shape[1]
    v = np.concatenate((x[:, 0::2], x[:, 1::2][:, ::-1]), axis=1)
    spectrum = np.fft.fft(v, axis=1)
    angle = np.pi * np.arange(n) / (2 * n)
    norm = np.full(n, np.sqrt(2.0 / n))
    norm[0] = np.sqrt(1.0 / n)
    out = spectrum.real * (norm * np.cos(angle))
    out += spectrum.imag * (norm * np.sin(angle))
    return out


# Rows (columns, for axis 0) that _idct_axis inverts per step. Its scratch
# is about 24 * _BLOCK * N bytes, whatever the length of the other axis.
_BLOCK = 8


def _idct_axis(x: np.ndarray, axis: int) -> None:
    """Orthonormal DCT-III (the inverse of ``_dct_axis``) of a writable 2-D
    float64 array along one axis, written back into ``x``.

    Makhoul's reordering run backwards: with a(k) the orthonormal scale and
    X[N] = 0, the FFT of the reordered signal is
    V[k] = exp(i pi k / 2N) (X[k] / a(k) - i X[N-k] / a(N-k)). One inverse
    real FFT of V[0..N/2] gives v, and x[2j] = v[j], x[2j+1] = v[N-1-j].
    Lines go through ``_BLOCK`` at a time, in a spectrum scratch laid out
    like ``x``, so a block of columns is read along x's rows.
    """
    lines = x if axis == 1 else x.T
    count, n = lines.shape
    half = n // 2 + 1
    # 1 / (N a(k)) goes into the twiddle: irfft with norm="forward" leaves
    # the 1/N of the inverse out.
    twiddle = np.exp(1j * np.pi / (2 * n) * np.arange(half)) * np.sqrt(0.5 / n)
    twiddle[0] = np.sqrt(1.0 / n)
    rows = min(_BLOCK, count)
    order = "C" if axis == 1 else "F"
    spectrum = np.empty((rows, half), dtype=np.complex128, order=order)
    for start in range(0, count, rows):
        block = lines[start : start + rows]
        spec = spectrum[: block.shape[0]]
        spec.real[...] = block[:, :half]
        spec.imag[:, 0] = 0.0
        np.negative(block[:, : n - half : -1], out=spec.imag[:, 1:])  # X[N-k]
        spec *= twiddle
        # A new block per step: numpy.fft takes out= only from numpy 2.0.
        sig = np.fft.irfft(spec, n=n, axis=1, norm="forward")
        block[:, 0::2] = sig[:, : (n + 1) // 2]
        block[:, 1::2] = sig[:, ::-1][:, : n // 2]


def dct2_reference(x: Matrix) -> Spectrum:
    """Definitional transform via explicit cosine basis matrices.

    Evaluates the double sum as C_m x C_n^T in O(m^2 n + m n^2); kept
    deliberately free of fast-transform tricks.
    """
    m, n = x.shape
    coeffs = _basis(m) @ x.array @ _basis(n).T
    return Spectrum(Matrix(coeffs))


def idct2_reference(f: Spectrum) -> Matrix:
    """Definitional inverse: transpose of the orthogonal basis on each side."""
    m, n = f.coefficients.shape
    return Matrix(_basis(m).T @ f.coefficients.array @ _basis(n))


@lru_cache(maxsize=32)
def _basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix: row u is the u-th cosine mode."""
    i = np.arange(n)
    u = i.reshape(-1, 1)
    mat = np.cos(np.pi * (2 * i + 1) * u / (2 * n))
    mat[0, :] *= np.sqrt(1.0 / n)
    mat[1:, :] *= np.sqrt(2.0 / n)
    return mat
