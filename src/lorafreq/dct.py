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
gets its spectrum this way. ``dct2`` of a merged update is the library and
test reference for it.

The factor transforms run on ``numpy.fft``. The full-size transforms
(``dct2``, ``idct2``, ``scatter_idct2``) run on ``scipy.fft``, imported on
first use: importing scipy costs more than analyzing a BERT-base-sized
adapter, and only decompress, ``mask --emit dense`` and the library need it.
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
    left = _dct_axis(b.array, axis=0)
    right = _dct_axis(a.array, axis=1)
    coeffs = left @ right
    coeffs *= float(scale)
    return Spectrum(Matrix(coeffs))


def idct2(f: Spectrum) -> Matrix:
    """Inverse of :func:`dct2` (separable orthonormal DCT-III)."""
    from scipy import fft

    return Matrix(fft.idctn(f.coefficients.array, type=2, norm="ortho"))


def scatter_idct2(shape: tuple[int, int], flat_indices, values) -> Matrix:
    """Inverse of a spectrum that is zero outside the given flat indices.

    Allocates one m x n buffer, inverts it in place, and copies it once
    into the returned Matrix; ``values`` is only read.
    """
    from scipy import fft

    m, n = shape
    flat = np.zeros(m * n)
    flat[flat_indices] = values
    inverse = fft.idctn(flat.reshape(m, n), type=2, norm="ortho", overwrite_x=True)
    return Matrix(inverse)


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
