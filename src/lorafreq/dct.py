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
forms their product block by block of rows; the m x n update itself is
never built. Every command gets its spectrum this way (see ``analysis``);
``dct2`` of a merged update is the library and test reference for both.

Every transform runs on ``numpy.fft``, in place, through one kernel per
direction (``_dct_axis``, ``_idct_axis``). Each step takes whole lines along
one axis (``_step_lines``): at least ``_BLOCK`` of them, or as many as fill
``_STEP`` entries when they are short, since a numpy.fft call costs ~10 us
before any work. The inverse takes more when its buffer is large: about
1/40 of the buffer per step, up to ``_STEP_MAX`` entries, so its calls hold
the GIL less and the threads that share one inverse run side by side.
numpy.fft transforms each line on its own, so a line's bits do not depend
on the step or thread it shares or on the axis it lies along: blocking and
splitting change no output.
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
    """Forward orthonormal 2D DCT-II, in one copy of x; every coefficient
    is within 2 * eps * ||x||_F of ``scipy.fft.dctn(x, norm="ortho")``."""
    return Spectrum(Matrix(_both_axes(_dct_axis, np.array(x.array)), copy=False))


def dct2_factored(b: Matrix, a: Matrix, scale: float) -> Spectrum:
    """Spectrum of scale * (b @ a), from the DCTs of the thin factors.

    Equals ``dct2`` of the merged update up to rounding: the coefficients
    differ by at most 8 * eps * scale * ||b||_F * ||a||_F. The scale is
    applied to the product, as the merge applies it, so a scale that would
    overflow or underflow a factor alone stays harmless.
    """
    return Spectrum(Matrix(_factored_product(b, a, scale), copy=False))


def _factored_product(b: Matrix, a: Matrix, scale: float) -> np.ndarray:
    """scale * (C_m b)(a C_n^T) as a new writable C-contiguous array.

    The buffer is filled by draining ``_factored_rows``, looked up at call
    time, so every command reads the product's bits from that one loop. Its
    entries are not checked: a caller that keeps this buffer instead of a
    Matrix checks that the total energy it sums is finite.
    """
    blocks = _factored_rows(b, a, scale)  # DCT scratch freed before coeffs
    coeffs = np.empty((b.shape[0], a.shape[1]))
    for _ in blocks(coeffs):
        pass
    return coeffs


def _factor_dcts(b: Matrix, a: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """C_m b and a C_n^T, each in a new C-contiguous array."""
    left, right = np.array(b.array), np.array(a.array)
    _dct_axis(left, axis=0)
    _dct_axis(right, axis=1)
    return left, right


# Multiply-adds in one gemm of a factored product, so a gemm writes at most
# this many entries (2 MB of float64). OpenBLAS runs a gemm this small on the
# calling thread; larger gemms wake its helper threads once per gemm, and on
# 2 cores they contend with the pool's workers: gemms of 2^20 multiply-adds
# made analyze of two 4096^2 rank-16 updates up to a tenth slower.
_BLOCK_WORK = 2**18

# Entries in one chunk of whole gemm spans, the unit ``_factored_rows``
# yields. At r = 16 a span holds 2^14 entries, and mask's selection makes
# ~8 numpy calls per block it reads; per span, those calls held the GIL so
# long that the two 4096^2 rank-16 updates took longer on two threads than
# one after the other (0.61-0.79 s against 0.62-0.68 s). On two threads they
# took 0.52-0.55 s in chunks of 2^15 entries, 0.41-0.45 s at 2^16, 0.36-0.39 s
# at 2^17 (1 MB), 0.43-0.46 s at 2^18 and 0.49 s at 2^19, where a chunk no
# longer stays in cache (2-vCPU Xeon VM, OPENBLAS_NUM_THREADS=1, best of 5).
_CHUNK_ENTRIES = 2**17


def _row_spans(m: int, n: int, r: int = 1) -> list[tuple[int, int]]:
    """(start, stop) ranges of max(1, _BLOCK_WORK // (n * r)) rows, the last
    one ragged, that tile the rows of an m x n product of rank r."""
    rows = max(1, _BLOCK_WORK // (n * r))
    return [(start, min(start + rows, m)) for start in range(0, m, rows)]


def _factored_rows(b: Matrix, a: Matrix, scale: float):
    """A function whose every call yields scale * (C_m b)(a C_n^T) as flat
    row chunks, in order, with the same bits; the factor DCTs are taken once.

    A chunk is a run of whole ``_row_spans`` spans, about ``_CHUNK_ENTRIES``
    entries and at least one span. Each span is one gemm, written into its
    rows of the chunk, and the chunk is then scaled where it lies. With a
    C-contiguous m x n ``out``, the chunks are its rows. Without one, each
    call reuses one scratch chunk: a yielded chunk is writable until the
    next is taken, and the whole product is never held. A BLAS may round a
    product differently with its shape (OpenBLAS 0.3.31 rounds a 700 x 333
    rank-8 product unlike any split of it into row blocks), so this is the
    only place it is formed.
    """
    left, right = _factor_dcts(b, a)
    n = right.shape[1]
    spans = _row_spans(left.shape[0], n, right.shape[0])
    step = max(1, _CHUNK_ENTRIES // ((spans[0][1] - spans[0][0]) * n))
    chunks = [spans[i : i + step] for i in range(0, len(spans), step)]

    def blocks(out: np.ndarray | None = None):
        scratch = np.empty((chunks[0][-1][1], n)) if out is None else None
        for chunk in chunks:
            top, bottom = chunk[0][0], chunk[-1][1]
            rows = out[top:bottom] if scratch is None else scratch[: bottom - top]
            for start, stop in chunk:
                np.matmul(left[start:stop], right, out=rows[start - top : stop - top])
            rows *= float(scale)
            yield rows.reshape(-1)

    return blocks


def idct2(f: Spectrum) -> Matrix:
    """Inverse of :func:`dct2` (separable orthonormal DCT-III); a non-finite
    result raises ValueError."""
    return Matrix(_both_axes(_idct_axis, np.array(f.coefficients.array)), copy=False)


def scatter_idct2(shape: tuple[int, int], flat_indices, values) -> Matrix:
    """Inverse of a spectrum that is zero outside the given flat indices, in
    one m x n buffer; ``values`` is only read, and a non-finite result
    raises ValueError."""
    m, n = shape
    flat = np.zeros(m * n)
    flat[flat_indices] = values
    return Matrix(_both_axes(_idct_axis, flat.reshape(m, n)), copy=False)


def _scatter_rows(
    x: np.ndarray, start: int, stop: int, flat_indices, values, clear: bool
) -> None:
    """The row pass of x's inverse on rows start:stop, one share of it.

    The rows are zeroed (unless ``clear`` is false: they already are), the
    coefficients whose flat indices fall in them are scattered in, found by
    one ``searchsorted`` since the indices must ascend, and the rows are
    inverted in steps sized for all of x.
    """
    n = x.shape[1]
    if clear:
        x[start:stop] = 0.0
    lo, hi = np.searchsorted(flat_indices, (start * n, stop * n))
    x.reshape(-1)[flat_indices[lo:hi]] = values[lo:hi]
    _idct_axis(x[start:stop], 1, x.size)


def _invert_columns(x: np.ndarray, start: int, stop: int) -> None:
    """The column pass of x's inverse on columns start:stop, one share of
    it, in steps sized for all of x."""
    _idct_axis(x[:, start:stop], 0, x.size)


def _both_axes(kernel, buffer: np.ndarray) -> np.ndarray:
    """Run ``kernel`` along the rows, then the columns, of a writable
    C-contiguous array and return it."""
    with np.errstate(invalid="ignore", over="ignore"):
        kernel(buffer, axis=1)
        kernel(buffer, axis=0)
    return buffer


# Scratch per step: about 60 (_dct_axis) and 24 (_idct_axis) bytes per entry
# of the step. An inverse's step of 1/_STEP_SHARE of its buffer thus keeps
# its scratch under a tenth of the buffer, and 3 MB at most; the floor's
# steps of _BLOCK or _STEP // n lines can take more on a thin buffer.
_BLOCK = 8
_STEP = 4096
_STEP_SHARE = 40
# 32 lines of 4096. A 4096^2 inverse's column pass took 0.25-0.28 s in steps
# of 8 lines, 0.20-0.27 s in 16, 0.19-0.21 s in 32 and 0.18-0.26 s in 64; its
# row pass 0.12-0.15 s in 8 and 0.13-0.18 s in 32 (2-vCPU Xeon VM,
# OPENBLAS_NUM_THREADS=1, three rounds of best of 5).
_STEP_MAX = 2**17


def _step_lines(n: int, entries: int = 0) -> int:
    """Lines of length n in one kernel step: ``_BLOCK``, or as many as fill
    ``_STEP`` entries, or ``entries // _STEP_SHARE`` entries up to ``_STEP_MAX``,
    whichever is most. ``entries`` is the buffer's size, 0 for the floor alone."""
    share = min(entries // _STEP_SHARE, _STEP_MAX)
    return max(_BLOCK, _STEP // n, share // n)


def _dct_axis(x: np.ndarray, axis: int) -> None:
    """Orthonormal DCT-II of a writable 2-D float64 array along one axis, in place.

    Makhoul's reordering (IEEE TASSP 1980): with v the even-indexed entries
    followed by the odd-indexed ones reversed, the unscaled DCT-II is
    X[k] = Re(exp(-i pi k / 2N) FFT(v)[k]).
    """
    lines = x if axis == 1 else x.T
    n = lines.shape[1]
    angle = np.pi * np.arange(n) / (2 * n)
    norm = np.full(n, np.sqrt(2.0 / n))
    norm[0] = np.sqrt(1.0 / n)
    cos, sin = norm * np.cos(angle), norm * np.sin(angle)
    rows = _step_lines(n)
    for start in range(0, lines.shape[0], rows):
        block = lines[start : start + rows]
        v = np.concatenate((block[:, 0::2], block[:, 1::2][:, ::-1]), axis=1)
        spectrum = np.fft.fft(v, axis=1)
        np.multiply(spectrum.real, cos, out=block)
        block += spectrum.imag * sin


def _idct_axis(x: np.ndarray, axis: int, entries: int = 0) -> None:
    """Orthonormal DCT-III (the inverse of ``_dct_axis``) of a writable 2-D
    float64 array along one axis, written back into ``x``.

    Makhoul's reordering run backwards: with a(k) the orthonormal scale and
    X[N] = 0, the FFT of the reordered signal is
    V[k] = exp(i pi k / 2N) (X[k] / a(k) - i X[N-k] / a(N-k)). One inverse
    real FFT of V[0..N/2] gives v, and x[2j] = v[j], x[2j+1] = v[N-1-j].
    One body serves both axes: a step is a block of whole lines, rows
    ``x[s:s+w]`` or columns ``x[:, s:s+w]`` with w from ``_step_lines`` of
    ``entries`` (x's size when 0; a share of a buffer passes the buffer's),
    and every operation runs along ``axis`` on that block and on a spectrum
    scratch laid out like it.
    """
    n, count = x.shape[axis], x.shape[1 - axis]
    half = n // 2 + 1
    # 1 / (N a(k)) goes into the twiddle: irfft with norm="forward" leaves
    # the 1/N of the inverse out.
    twiddle = np.exp(1j * np.pi / (2 * n) * np.arange(half)) * np.sqrt(0.5 / n)
    twiddle[0] = np.sqrt(1.0 / n)
    w = min(_step_lines(n, entries or x.size), count)
    shape = [w, w]
    shape[axis] = half
    spectrum = np.empty(shape, dtype=np.complex128)
    twiddle = np.expand_dims(twiddle, 1 - axis)  # broadcast along the lines
    low, dc, rest = _on(axis, slice(half)), _on(axis, 0), _on(axis, slice(1, None))
    high = _on(axis, slice(n - 1, n - half, -1))  # X[N-k], 0 < k < half
    even = _on(axis, slice(0, None, 2))
    odd = _on(axis, slice(1, None, 2))
    head = _on(axis, slice((n + 1) // 2))  # v[j] for x[2j]
    tail = _on(axis, slice(n - 1, n - 1 - n // 2, -1))  # v[N-1-j] for x[2j+1]
    for start in range(0, count, w):
        block = x[_on(1 - axis, slice(start, start + w))]
        spec = spectrum[_on(1 - axis, slice(block.shape[1 - axis]))]
        spec.real[...] = block[low]
        spec.imag[dc] = 0.0
        np.negative(block[high], out=spec.imag[rest])
        spec *= twiddle
        # A new block per step: numpy.fft takes out= only from numpy 2.0.
        sig = np.fft.irfft(spec, n=n, axis=axis, norm="forward")
        block[even] = sig[head]
        block[odd] = sig[tail]
        del sig  # freed before the next step's is made


def _on(axis: int, part) -> tuple:
    """Index of a 2-D array that takes ``part`` along ``axis``."""
    return (slice(None), part) if axis == 1 else (part,)


def dct2_reference(x: Matrix) -> Spectrum:
    """Definitional transform via explicit cosine basis matrices.

    Evaluates the double sum as C_m x C_n^T in O(m^2 n + m n^2); kept
    deliberately free of fast-transform tricks.
    """
    m, n = x.shape
    coeffs = _basis(m) @ x.array @ _basis(n).T
    return Spectrum(Matrix(coeffs))


@lru_cache(maxsize=32)
def _basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix: row u is the u-th cosine mode."""
    i = np.arange(n)
    u = i.reshape(-1, 1)
    mat = np.cos(np.pi * (2 * i + 1) * u / (2 * n))
    mat[0, :] *= np.sqrt(1.0 / n)
    mat[1:, :] *= np.sqrt(2.0 / n)
    return mat
