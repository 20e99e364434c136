"""Dense matrices and their singular value decomposition.

Everything here is float64 and immutable. ``svd`` is LAPACK's thin
decomposition with a fixed sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence


class Matrix:
    """Immutable dense real matrix (row-major, binary64).

    Entries are validated finite at construction; NaN/Inf never propagate
    past this boundary.
    """

    __slots__ = ("_array",)

    def __init__(self, values, copy: bool = True):
        """copy=False adopts ``values`` as is when it is already a float64
        C-contiguous array; the caller hands it over and must not write to
        it again."""
        arr = np.array(values, dtype=np.float64, copy=copy or None, order="C")
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        self._array = arr

    @property
    def rows(self) -> int:
        return self._array.shape[0]

    @property
    def cols(self) -> int:
        return self._array.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only 2-D view of the entries."""
        return self._array

    @property
    def data(self) -> np.ndarray:
        """Read-only flat row-major view of the entries."""
        return self._array.reshape(-1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def scaled(self, factor: float) -> "Matrix":
        return Matrix(self._array * float(factor))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SvdResult:
    """Factorization A = U diag(s) Vt with s sorted non-increasing."""

    singular_values: np.ndarray
    left_vectors: Matrix
    right_vectors_t: Matrix


def svd(a: Matrix) -> SvdResult:
    """Thin SVD through LAPACK (numpy's gesdd).

    U is m x p, s has length p and Vt is p x n, with p = min(m, n).
    Sign convention: the largest-magnitude entry of each left vector is
    non-negative, and each flip is mirrored into Vt.
    """
    try:
        u, s, vt = np.linalg.svd(a.array, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK: {exc}") from exc

    flip = u[np.argmax(np.abs(u), axis=0), np.arange(s.size)] < 0.0
    u[:, flip] *= -1.0
    vt[flip, :] *= -1.0

    return SvdResult(
        singular_values=s,
        left_vectors=Matrix(u),
        right_vectors_t=Matrix(vt),
    )
