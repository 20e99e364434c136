"""Correlation statistics: Pearson, Spearman, and an exact-t p-value.

The two-sided p-value for a Pearson r at sample size n uses the identity
p = I_x(nu/2, 1/2) with nu = n - 2 and x = nu / (nu + t^2), where I is the
regularized incomplete beta function (scipy.special.betainc). This is the
exact Student-t tail, not a normal approximation: the claims it supports
live around p ~ 1e-9 and far beyond, deep in the tail. scipy.special is
imported inside the p-value, so only correlate pays for loading scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _accumulate, _summary
from .errors import DegenerateInput
from .linalg import Matrix, svd


@dataclass(frozen=True)
class CorrelationResult:
    pearson_r: float
    spearman_rho: float
    n: int
    p_value_pearson: float


def pearson(x, y) -> float:
    """Sample correlation via the two-pass, mean-subtracted formula."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise DegenerateInput(f"need at least 3 samples, got {n}")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [v - mx for v in xs]
    dy = [v - my for v in ys]
    sxx = math.fsum(v * v for v in dx)
    syy = math.fsum(v * v for v in dy)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("zero variance in at least one input")
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def spearman(x, y) -> float:
    """Pearson on average-tie ranks."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return pearson(_ranks(xs), _ranks(ys))


def pearson_p_two_sided(r: float, n: int) -> float:
    """Two-sided p-value for a Pearson correlation under the null."""
    if n < 4:
        raise DegenerateInput(f"p-value needs n >= 4, got {n}")
    if not math.isfinite(r) or abs(r) > 1.0 + 1e-12:
        raise DegenerateInput(f"correlation {r} outside [-1, 1]")
    if abs(r) >= 1.0:
        return 0.0
    nu = n - 2
    t_sq = r * r * nu / (1.0 - r * r)
    x = nu / (nu + t_sq)
    import scipy.special

    return float(scipy.special.betainc(nu / 2.0, 0.5, x))


def svd_k90(delta: Matrix, target_fraction: float = 0.9) -> float:
    """Minimum singular-value count reaching the energy target, as a
    percentage of min(m, n). Energy is squared singular values (Frobenius
    mass), mirroring the DCT-side definition."""
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError(f"target_fraction must be in (0, 1], got {target_fraction}")
    s = svd(delta).singular_values
    return _k90_percent(s, min(delta.rows, delta.cols), target_fraction)


def _factored_svd_k90(b: Matrix, a: Matrix) -> float:
    """svd_k90 of B @ A at the 0.9 target, from its factors.

    With thin QR B = Q_B R_B and A^T = Q_A R_A, B @ A = Q_B (R_B R_A^T) Q_A^T,
    so the r x r core R_B R_A^T has the singular values of B @ A and the
    m x n product is never formed. The count is scale-free, so the merge
    scale plays no part.
    """
    r_b = np.linalg.qr(b.array, mode="r")
    r_a = np.linalg.qr(a.array.T, mode="r")
    s = svd(Matrix(r_b @ r_a.T)).singular_values
    return _k90_percent(s, min(b.rows, a.cols), 0.9)


def svd_dct_correlate(pairs) -> CorrelationResult:
    """Correlate per-matrix (svd_k90, dct_k90) series."""
    pts = [(float(a), float(b)) for a, b in pairs]
    if len(pts) < 4:
        raise DegenerateInput(f"need at least 4 matrices, got {len(pts)}")
    xs = [a for a, _ in pts]
    ys = [b for _, b in pts]
    r = pearson(xs, ys)
    rho = spearman(xs, ys)
    return CorrelationResult(
        pearson_r=r,
        spearman_rho=rho,
        n=len(pts),
        p_value_pearson=pearson_p_two_sided(r, len(pts)),
    )


def _k90_percent(
    singular_values: np.ndarray, min_dim: int, target_fraction: float
) -> float:
    """100 * (smallest count of leading values whose squared sum reaches the
    target fraction of the total) / min_dim, by analysis.k_for_energy's rule."""
    energies = singular_values * singular_values
    count = _summary(energies, _accumulate(energies), target_fraction).coeff_count_90
    return 100.0 * count / min_dim


def _ranks(values: list[float]) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their ranks."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, v.size])
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(starts + (sizes - 1) / 2.0 + 1.0, sizes)
    return ranks
