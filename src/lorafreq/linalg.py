"""Dense matrix arithmetic and singular value decomposition.

Everything here is float64 and immutable. ``matmul`` accumulates in a fixed
row-major, left-to-right order so repeated runs are bit-identical; ``svd``
is a one-sided Jacobi decomposition with a Gram-matrix cache, accurate to
well below the 1e-9 tolerances the spectral pipeline relies on.

The Jacobi sweeps use the round-robin (parallel) ordering: a sweep over n
columns is n - 1 rounds (n for odd n) of floor(n/2) disjoint pairs, so every
pair meets once per sweep and one round's rotations touch different rows.
Each round rotates all of its pairs at once with vectorised row operations
instead of one pair at a time (Golub & Van Loan, Matrix Computations, 8.6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, ShapeMismatch

# Pair (p, q) is considered orthogonal once |G[p,q]| <= ORTHO_TOL * sqrt(G[p,p]*G[q,q]).
ORTHO_TOL = 1e-12
# Residual above this at the sweep cap raises NoConvergence.
RESIDUAL_LIMIT = 1e-8
MAX_SWEEPS = 60
# Columns whose norm falls below this (relative to the largest column) are
# numerical noise for a float64 decomposition; they are zeroed so the sweep
# loop does not chase the junk subspace. Their singular values report as 0.
DEFLATE_REL = 1e-13


class Matrix:
    """Immutable dense real matrix (row-major, binary64).

    Entries are validated finite at construction; NaN/Inf never propagate
    past this boundary.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        self._array = arr

    @classmethod
    def from_flat(cls, rows: int, cols: int, data) -> "Matrix":
        flat = np.asarray(data, dtype=np.float64)
        if flat.ndim != 1 or flat.size != rows * cols:
            raise ValueError(
                f"flat data of length {flat.size} does not fill {rows}x{cols}"
            )
        return cls(flat.reshape(rows, cols))

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

    @property
    def rank_hint(self) -> int:
        """Count of strictly positive singular values."""
        return int(np.count_nonzero(self.singular_values > 0.0))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with a fixed summation order.

    Accumulates rank-1 terms over the inner index in ascending order, which
    reproduces the naive triple loop bit-for-bit and keeps outputs stable
    across runs regardless of BLAS threading.
    """
    if a.cols != b.rows:
        raise ShapeMismatch(
            f"inner dimensions differ: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    aa = a.array
    bb = b.array
    out = np.zeros((a.rows, b.cols), dtype=np.float64)
    for k in range(a.cols):
        out += np.multiply.outer(aa[:, k], bb[k, :])
    return Matrix(out)


def frobenius_norm(a: Matrix) -> float:
    arr = a.array
    return float(np.sqrt(np.sum(arr * arr)))


def svd(a: Matrix) -> SvdResult:
    """One-sided Jacobi SVD.

    Columns of the working matrix are rotated pairwise until every pair is
    orthogonal to within ORTHO_TOL (relative to the column norms), or the
    sweep cap is hit. Wide inputs are decomposed through their transpose.
    Sign convention: the largest-magnitude entry of each left vector is
    non-negative.
    """
    m, n = a.rows, a.cols
    if m >= n:
        u, s, vt = _jacobi(a.array)
    else:
        u_t, s, vt_t = _jacobi(a.array.T)
        u, vt = vt_t.T, u_t.T

    # Fix signs on the final left vectors, mirroring each flip into Vt.
    for j in range(s.size):
        col = u[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            u[:, j] = -col
            vt[j, :] = -vt[j, :]

    return SvdResult(
        singular_values=s,
        left_vectors=Matrix(u),
        right_vectors_t=Matrix(vt),
    )


def _jacobi(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Core sweep loop for m >= n. Returns (U m*n, s, Vt n*n), s descending."""
    m, n = a.shape
    # Row i of `work` is column i of the working matrix: contiguous updates.
    work = a.T.copy(order="C")
    vt = np.eye(n)

    rounds = _round_robin(n)
    residual = 0.0
    for _ in range(MAX_SWEEPS):
        gram = work @ work.T
        diag = np.diagonal(gram).copy()

        # Deflate numerically-zero columns so they stop participating.
        dmax = diag.max()
        if dmax == 0.0:
            residual = 0.0
            break
        dead = diag <= (DEFLATE_REL * DEFLATE_REL) * dmax
        if dead.any():
            work[dead, :] = 0.0
            gram[dead, :] = 0.0
            gram[:, dead] = 0.0
            diag[dead] = 0.0

        residual = _max_defect(gram, diag)
        if residual <= ORTHO_TOL:
            break

        for p, q in rounds:
            alpha = gram[p, p]
            beta = gram[q, q]
            gamma = gram[p, q]
            bound = ORTHO_TOL * np.sqrt(np.abs(alpha * beta))
            live = (alpha > 0.0) & (beta > 0.0) & (np.abs(gamma) > bound)
            if not live.any():
                continue
            p, q = p[live], q[live]
            c, s = _rotation(alpha[live], beta[live], gamma[live])
            _rotate_rows(work, p, q, c, s)
            _rotate_rows(vt, p, q, c, s)
            # Keep the Gram cache consistent: G' = J^T G J.
            _rotate_rows(gram, p, q, c, s)
            _rotate_rows(gram.T, p, q, c, s)
            gram[p, q] = 0.0
            gram[q, p] = 0.0
    else:
        gram = work @ work.T
        residual = _max_defect(gram, np.diagonal(gram).copy())
        if residual > RESIDUAL_LIMIT:
            raise NoConvergence(
                f"Jacobi sweeps did not converge: residual {residual:.3e} "
                f"after {MAX_SWEEPS} sweeps",
                residual=residual,
            )

    sigma = np.sqrt(np.sum(work * work, axis=1))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    work = work[order, :]
    vt = vt[order, :]

    u = np.zeros((m, n))
    zero_cols = []
    for j in range(n):
        if sigma[j] > 0.0:
            u[:, j] = work[j, :] / sigma[j]
        else:
            zero_cols.append(j)
    if zero_cols:
        _complete_basis(u, zero_cols)
    return u, sigma, vt


def _max_defect(gram: np.ndarray, diag: np.ndarray) -> float:
    """Largest |G[p,q]| / sqrt(G[p,p]*G[q,q]) over p < q with live columns."""
    n = diag.size
    if n < 2:
        return 0.0
    scale = np.sqrt(np.outer(diag, diag))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.abs(gram) / scale
    ratio[scale == 0.0] = 0.0
    iu = np.triu_indices(n, k=1)
    vals = ratio[iu]
    return float(vals.max()) if vals.size else 0.0


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep for n columns as rounds of disjoint pairs (p, q), p < q.

    Circle method: slot 0 stays put while the other slots turn one step per
    round, so every pair meets exactly once in n - 1 rounds (n even). An odd
    n gets a bye slot, and the column facing it sits that round out.
    """
    slots = list(range(n)) + ([-1] if n % 2 else [])
    size = len(slots)
    rounds = []
    for _ in range(size - 1):
        pairs = sorted(
            (min(x, y), max(x, y))
            for x, y in zip(slots[: size // 2], reversed(slots[size // 2 :]))
            if x >= 0 and y >= 0
        )
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            rounds.append((p, q))
        slots = [slots[0], slots[-1], *slots[1:-1]]
    return rounds


def _rotation(
    alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi rotations (c, s) zeroing each pair's (p, q) Gram entry.

    t = sign(zeta) / (|zeta| + sqrt(1 + zeta^2)), taking sign(0) as +1; the
    form has no branch that divides by zero.
    """
    zeta = (beta - alpha) / (2.0 * gamma)
    sign = np.where(zeta >= 0.0, 1.0, -1.0)
    t = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c


def _rotate_rows(
    arr: np.ndarray, p: np.ndarray, q: np.ndarray, c: np.ndarray, s: np.ndarray
) -> None:
    """Rotate rows p[i] and q[i] of arr by (c[i], s[i]); the pairs are disjoint."""
    row_p = arr[p]
    row_q = arr[q]
    c = c[:, None]
    s = s[:, None]
    arr[p] = c * row_p - s * row_q
    arr[q] = s * row_p + c * row_q


def _complete_basis(u: np.ndarray, zero_cols: list[int]) -> None:
    """Fill zero columns of U with unit vectors orthogonal to the rest.

    For each slot, the canonical basis vector least represented by the
    existing columns is orthogonalized against them (two Gram-Schmidt
    passes) and normalized. Ties go to the lowest index.
    """
    m = u.shape[0]
    row_mass = np.sum(u * u, axis=1)
    available = np.ones(m, dtype=bool)
    for j in zero_cols:
        resid = np.where(available, 1.0 - row_mass, -np.inf)
        i = int(np.argmax(resid))
        available[i] = False
        v = np.zeros(m)
        v[i] = 1.0
        for _ in range(2):
            v -= u @ (u.T @ v)
        norm = np.sqrt(np.sum(v * v))
        if norm <= 1e-6:
            raise NoConvergence(
                "could not complete an orthonormal basis", residual=float("nan")
            )
        col = v / norm
        u[:, j] = col
        row_mass += col * col
