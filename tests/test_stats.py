"""Tests for correlation statistics and the exact-t p-value."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from lorafreq import stats
from lorafreq.container import merge_delta, pair_lora
from lorafreq.errors import DegenerateInput, ZeroSpectrum
from lorafreq.fixtures import generate_set, ramp_specs
from lorafreq.linalg import Matrix, svd
from lorafreq.report import correlate_report
from lorafreq.stats import (
    _factored_svd_k90,
    pearson,
    pearson_p_two_sided,
    spearman,
    svd_dct_correlate,
    svd_k90,
)


def t_sf_oracle(t: float, nu: int) -> float:
    """Two-sided tail mass by high-precision integration of the t density."""
    mpmath.mp.dps = 50
    nu_mp = mpmath.mpf(nu)

    def density(u):
        return (
            mpmath.gamma((nu_mp + 1) / 2)
            / (mpmath.sqrt(nu_mp * mpmath.pi) * mpmath.gamma(nu_mp / 2))
            * (1 + u * u / nu_mp) ** (-(nu_mp + 1) / 2)
        )

    tail = mpmath.quad(density, [abs(t), mpmath.inf])
    return float(2 * tail)


def brute_force_ranks(values):
    """Average rank by counting: rank = #smaller + (#equal + 1) / 2."""
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        out.append(less + (equal + 1) / 2.0)
    return out


class TestPearson:
    def test_exact_positive_linearity(self):
        assert pearson((1, 2, 3), (2, 4, 6)) == 1.0

    def test_exact_anti_linearity(self):
        assert pearson((1, 2, 3), (3, 2, 1)) == -1.0

    def test_hand_evaluated_example(self):
        assert pearson((1, 2, 3, 4), (1, 3, 2, 4)) == pytest.approx(0.8, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(110)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = pearson(x, y)
        assert pearson(3.5 * x - 2.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.25 * y + 7.0) == pytest.approx(base, abs=1e-12)
        assert pearson(-2.0 * x, y) == pytest.approx(-base, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(DegenerateInput):
            pearson((1, 2), (3, 4))

    def test_zero_variance(self):
        with pytest.raises(DegenerateInput):
            pearson((1, 1, 1), (1, 2, 3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson((1, 2, 3), (1, 2))

    def test_bounded(self):
        rng = np.random.default_rng(111)
        for _ in range(50):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            assert -1.0 <= pearson(x, y) <= 1.0


class TestSpearman:
    def test_monotone_nonlinear_is_one(self):
        x = [-2.0, -1.0, 0.0, 1.0, 2.0]
        y = [v**3 for v in x]
        assert spearman(x, y) == 1.0

    def test_ties_average_ranks(self):
        assert spearman((1, 1, 2), (10, 10, 20)) == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(112)
        xs = [rng.integers(0, 20, size=50).astype(float) for _ in range(10)]
        xs += [
            rng.choice([0.0, -0.0, 1.0, -1.0], size=50),  # -0.0 ties 0.0
            rng.choice([5e-324, -5e-324, 0.0, -0.0, 2.2e-308], size=50),
            rng.permutation([3.0] * 35 + [1.0] * 10 + [7.0] * 5),
        ]
        for x in xs:
            y = rng.standard_normal(x.size)
            assert list(stats._ranks(x)) == brute_force_ranks(x)
            want = pearson(brute_force_ranks(x), brute_force_ranks(y))
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(113)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)


class TestPearsonPValue:
    def test_null_gives_one(self):
        for n in (4, 10, 100):
            assert pearson_p_two_sided(0.0, n) == 1.0

    def test_perfect_correlation_gives_zero(self):
        assert pearson_p_two_sided(1.0, 10) == 0.0
        assert pearson_p_two_sided(-1.0, 10) == 0.0

    def test_strong_r_bound_at_plausible_sample_sizes(self):
        assert pearson_p_two_sided(0.906, 48) < 1e-9
        # Exact-t boundary: at n = 24 the two-sided p is 1.123e-9 (confirmed
        # by 50-digit integration), so the 1e-9 bound holds from n = 25 up.
        for n in range(25, 49):
            assert pearson_p_two_sided(0.906, n) < 1e-9
        assert 1e-9 < pearson_p_two_sided(0.906, 24) < 1.2e-9

    def test_matches_high_precision_integration(self):
        for r, n in [
            (0.1, 5),
            (0.5, 12),
            (0.8, 30),
            (0.906, 48),
            (-0.65, 20),
            (0.99, 8),
            (0.3, 200),
        ]:
            t = r * math.sqrt((n - 2) / (1.0 - r * r))
            want = t_sf_oracle(t, n - 2)
            assert pearson_p_two_sided(r, n) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "r, n", [(0.906, 48), (0.9, 200), (0.99, 200), (0.3, 200), (0.2, 1000)]
    )
    def test_relative_to_mpmath_deep_tail(self, r, n):
        # p down to ~1e-170, where an absolute tolerance says nothing.
        mpmath.mp.dps = 50
        nu = mpmath.mpf(n - 2)
        x = 1 - mpmath.mpf(r) ** 2  # nu / (nu + t^2), exactly
        want = mpmath.betainc(nu / 2, mpmath.mpf(0.5), 0, x, regularized=True)
        assert pearson_p_two_sided(r, n) == pytest.approx(float(want), rel=1e-12)

    def test_monotone_in_magnitude(self):
        values = [pearson_p_two_sided(r, 20) for r in (0.0, 0.2, 0.5, 0.8, 0.95)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_two_sided_symmetry(self):
        assert pearson_p_two_sided(0.6, 15) == pearson_p_two_sided(-0.6, 15)

    def test_small_n_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson_p_two_sided(0.5, 3)

    def test_out_of_range_r_rejected(self):
        with pytest.raises(DegenerateInput):
            pearson_p_two_sided(1.5, 10)


class TestSvdK90:
    @pytest.mark.parametrize(
        "diagonal, want",
        [
            # energies (25, 9, 1): 25 < 31.5 <= 34, so 2 of 3 values needed
            ([5.0, 3.0, 1.0], 200.0 / 3.0),
            # energies (9, 1): the first fraction is exactly 0.9, and reaching
            # the target counts, so 1 of 2 values (searchsorted's left side)
            ([3.0, 1.0], 50.0),
        ],
        ids=["three-values", "exact-threshold"],
    )
    def test_known_diagonal(self, diagonal, want):
        value = svd_k90(Matrix(np.diag(diagonal)))
        assert value == pytest.approx(want, rel=1e-12)

    def test_rank_one_needs_single_value(self):
        rng = np.random.default_rng(114)
        a = np.outer(rng.standard_normal(12), rng.standard_normal(9))
        assert svd_k90(Matrix(a)) == pytest.approx(100.0 / 9.0, rel=1e-9)

    def test_matches_numpy_based_oracle(self):
        rng = np.random.default_rng(115)
        for _ in range(10):
            a = rng.standard_normal((15, 11))
            s = np.linalg.svd(a, compute_uv=False)
            cum = np.cumsum(s * s)
            count = int(np.searchsorted(cum / cum[-1], 0.9)) + 1
            want = 100.0 * count / 11
            assert svd_k90(Matrix(a)) == pytest.approx(want, rel=1e-9)

    def test_zero_matrix(self):
        with pytest.raises(ZeroSpectrum):
            svd_k90(Matrix(np.zeros((3, 3))))

    def test_scale_invariance(self):
        rng = np.random.default_rng(116)
        a = rng.standard_normal((10, 10))
        assert svd_k90(Matrix(a)) == svd_k90(Matrix(1e3 * a))

    @pytest.mark.parametrize("fraction", [0.0, 1.5])
    def test_bad_fraction_rejected_before_svd(self, fraction, monkeypatch):
        def no_svd(_):
            raise AssertionError("svd ran before the argument check")

        monkeypatch.setattr(stats, "svd", no_svd)
        with pytest.raises(ValueError):
            svd_k90(Matrix(np.eye(3)), target_fraction=fraction)


# name: (m, n, r); r None is dense_gaussian's pair, the update beside eye().
_FACTOR_SHAPES = {
    "tall": (40, 25, 6),
    "wide": (25, 40, 6),
    "rank-1": (30, 20, 1),
    "full-rank": (30, 20, 20),
    "identity-tall": (36, 24, None),
    "identity-wide": (24, 36, None),
}


def _factor_pair(name: str) -> tuple[np.ndarray, np.ndarray]:
    """(B, A) of the named shape; B @ A is the update."""
    m, n, r = _FACTOR_SHAPES[name]
    rng = np.random.default_rng(118)
    if r is None:
        delta = rng.standard_normal((m, n))
        return (delta, np.eye(n)) if m >= n else (np.eye(m), delta)
    return rng.standard_normal((m, r)), rng.standard_normal((r, n))


class TestFactoredSvd:
    """The r x r core stands in for the m x n update it factors."""

    @pytest.mark.parametrize("shape", list(_FACTOR_SHAPES))
    def test_core_spectrum_matches_dense(self, shape, monkeypatch):
        cores = []

        def spy(core):
            cores.append(core)
            return svd(core)

        monkeypatch.setattr(stats, "svd", spy)
        b, a = _factor_pair(shape)
        r = b.shape[1]
        _factored_svd_k90(Matrix(b), Matrix(a))
        assert [core.shape for core in cores] == [(r, r)]
        got = svd(cores[0]).singular_values
        want = np.linalg.svd(b @ a, compute_uv=False)[:r]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * want[0])

    @pytest.mark.parametrize("shape", list(_FACTOR_SHAPES))
    def test_k90_matches_dense(self, shape):
        b, a = _factor_pair(shape)
        assert _factored_svd_k90(Matrix(b), Matrix(a)) == svd_k90(Matrix(b @ a))

    def test_correlate_matches_dense_svd_k90(self):
        specs = ramp_specs("mixed", 64, 64, 12, seed=119, noise_level=0.3)
        pairs = pair_lora(generate_set(specs)).pairs
        report = correlate_report("in.st", pairs, 1.0, threads=1)
        got = [svd_value for _, svd_value, _ in report["per_matrix"]]
        assert got == [svd_k90(merge_delta(pair)) for pair in pairs]

    @pytest.mark.parametrize("zero", ["b", "a"])
    def test_zero_factor(self, zero):
        b, a = _factor_pair("tall")
        if zero == "b":
            b = np.zeros_like(b)
        else:
            a = np.zeros_like(a)
        with pytest.raises(ZeroSpectrum):
            _factored_svd_k90(Matrix(b), Matrix(a))

    def test_correlate_never_decomposes_the_update(self, monkeypatch):
        """Ranks 1..6 on 256^2: the SVD sees cores of at most 6 x 6."""
        shapes = []

        def spy(core):
            shapes.append(core.shape)
            return svd(core)

        monkeypatch.setattr(stats, "svd", spy)
        specs = ramp_specs("mixed", 256, 256, 6, seed=120, noise_level=0.3)
        pairs = pair_lora(generate_set(specs)).pairs
        correlate_report("in.st", pairs, 1.0, threads=1)
        assert sorted(shapes) == [(r, r) for r in range(1, 7)]


class TestSvdDctCorrelate:
    def test_exact_line(self):
        pairs = [(float(i), 2.0 * i + 1.0) for i in range(1, 9)]
        res = svd_dct_correlate(pairs)
        assert res.pearson_r == 1.0
        assert res.spearman_rho == 1.0
        assert res.p_value_pearson == 0.0
        assert res.n == 8

    def test_too_few_pairs(self):
        with pytest.raises(DegenerateInput):
            svd_dct_correlate([(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])

    def test_identical_series_degenerate(self):
        with pytest.raises(DegenerateInput):
            svd_dct_correlate([(1.0, 2.0)] * 6)

    def test_reports_all_statistics(self):
        rng = np.random.default_rng(117)
        x = np.arange(1.0, 25.0)
        y = x + rng.standard_normal(24) * 2.0
        res = svd_dct_correlate(list(zip(x, y)))
        assert res.n == 24
        assert 0.9 < res.pearson_r <= 1.0
        assert 0.0 <= res.p_value_pearson < 1e-9
        assert -1.0 <= res.spearman_rho <= 1.0
