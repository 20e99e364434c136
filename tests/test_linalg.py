"""Tests for the Matrix type and the SVD."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from lorafreq.errors import NoConvergence
from lorafreq.linalg import Matrix, svd


class TestMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Matrix([1.0, 2.0, 3.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Matrix(np.zeros((0, 4)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            Matrix([[float("inf"), 0.0]])

    def test_entries_are_immutable(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 9.0

    def test_constructor_copies_input(self):
        src = np.ones((2, 2))
        m = Matrix(src)
        src[0, 0] = 5.0
        assert m.array[0, 0] == 1.0


def assert_valid_svd(a: np.ndarray, atol: float = 1e-9) -> None:
    res = svd(Matrix(a))
    s = res.singular_values
    u = res.left_vectors.array
    vt = res.right_vectors_t.array
    p = min(a.shape)

    assert s.shape == (p,)
    assert u.shape == (a.shape[0], p)
    assert vt.shape == (p, a.shape[1])
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 0.0), "singular values must be non-increasing"

    scale = max(1.0, float(np.abs(a).max()))
    np.testing.assert_allclose(u.T @ u, np.eye(p), atol=atol)
    np.testing.assert_allclose(vt @ vt.T, np.eye(p), atol=atol)
    np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=atol * scale)

    # Largest-magnitude entry of every left vector is non-negative.
    for j in range(p):
        col = u[:, j]
        assert col[np.argmax(np.abs(col))] >= 0.0


class TestSvd:
    def test_closed_form_2x2(self):
        # Gram matrix [[25, 20], [20, 25]] has eigenvalues 45 and 5.
        res = svd(Matrix([[3.0, 0.0], [4.0, 5.0]]))
        np.testing.assert_allclose(
            res.singular_values, [math.sqrt(45.0), math.sqrt(5.0)], rtol=1e-14
        )

    def test_diagonal_matrix(self):
        res = svd(Matrix(np.diag([5.0, 3.0, 1.0])))
        np.testing.assert_allclose(res.singular_values, [5.0, 3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(res.left_vectors.array, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(res.right_vectors_t.array, np.eye(3), atol=1e-12)

    def test_identity(self):
        res = svd(Matrix(np.eye(4)))
        np.testing.assert_allclose(res.singular_values, np.ones(4), atol=1e-14)

    def test_random_square(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 13))
            assert_valid_svd(rng.standard_normal((n, n)))

    def test_random_tall(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            m = int(rng.integers(2, 16))
            n = int(rng.integers(1, m + 1))
            assert_valid_svd(rng.standard_normal((m, n)))

    def test_random_wide(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            n = int(rng.integers(2, 16))
            m = int(rng.integers(1, n + 1))
            assert_valid_svd(rng.standard_normal((m, n)))

    def test_parseval_identity(self):
        rng = np.random.default_rng(45)
        a = rng.standard_normal((9, 6))
        res = svd(Matrix(a))
        total = float(np.sum(res.singular_values**2))
        assert total == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)

    def test_scaling_property(self):
        rng = np.random.default_rng(46)
        a = rng.standard_normal((5, 7))
        base = svd(Matrix(a)).singular_values
        scaled = svd(Matrix(3.5 * a)).singular_values
        np.testing.assert_allclose(scaled, 3.5 * base, rtol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal(8)
        y = rng.standard_normal(5)
        a = np.outer(x, y)
        res = svd(Matrix(a))
        want = math.sqrt(float(np.sum(x * x)) * float(np.sum(y * y)))
        assert res.singular_values[0] == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(res.singular_values[1:], 0.0, atol=1e-12)
        assert_valid_svd(a)

    def test_low_rank_product(self):
        rng = np.random.default_rng(48)
        b = rng.standard_normal((12, 3))
        a = rng.standard_normal((3, 10))
        delta = b @ a
        res = svd(Matrix(delta))
        assert np.all(res.singular_values[3:] <= 1e-10 * res.singular_values[0])
        assert_valid_svd(delta)

    def test_zero_matrix(self):
        res = svd(Matrix(np.zeros((4, 3))))
        np.testing.assert_array_equal(res.singular_values, np.zeros(3))
        assert_valid_svd(np.zeros((4, 3)), atol=1e-12)

    def test_single_column_and_row(self):
        assert_valid_svd(np.array([[3.0], [4.0]]), atol=1e-12)
        res = svd(Matrix([[3.0], [4.0]]))
        assert res.singular_values[0] == pytest.approx(5.0, rel=1e-15)
        assert_valid_svd(np.array([[3.0, 4.0]]), atol=1e-12)

    def test_duplicate_columns(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        res = svd(Matrix(a))
        assert res.singular_values[1] == pytest.approx(0.0, abs=1e-12)
        assert_valid_svd(a, atol=1e-12)

    def test_agrees_with_numpy_values(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            a = rng.standard_normal((11, 7))
            got = svd(Matrix(a)).singular_values
            want = np.linalg.svd(a, compute_uv=False)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(50)
        a = rng.standard_normal((10, 10))
        r1 = svd(Matrix(a))
        r2 = svd(Matrix(a))
        assert r1.singular_values.tobytes() == r2.singular_values.tobytes()
        assert r1.left_vectors.array.tobytes() == r2.left_vectors.array.tobytes()
        assert (
            r1.right_vectors_t.array.tobytes()
            == r2.right_vectors_t.array.tobytes()
        )

    def test_lapack_failure_raises_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NoConvergence):
            svd(Matrix(np.eye(3)))


class TestSvdWarningFree:
    """Degenerate inputs run without a single floating-point warning."""

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((5, 4)),
            # Rank 1: every singular value after the first is 0 in exact arithmetic.
            np.outer(
                np.random.default_rng(47).standard_normal(8),
                np.random.default_rng(48).standard_normal(5),
            ),
            np.repeat(np.array([[1.0], [2.0], [-3.0], [0.5]]), 4, axis=1),
            np.eye(6)[:, :4] * np.array([4.0, 3.0, 2.0, 1.0]),
            # Nearly orthogonal columns whose norms differ by four orders of
            # magnitude, with tiny off-diagonal coupling.
            np.diag([1e4, 1.0, 3.0]) + 1e-8,
            np.array([[3.0, -4.0, 1.0, 2.0, 0.0]]),
            np.array([[3.0], [-4.0], [1.0], [2.0], [0.0]]),
        ],
        ids=[
            "zero",
            "rank1",
            "duplicate-cols",
            "orthogonal-cols",
            "nearly-orthogonal-cols",
            "1xn",
            "nx1",
        ],
    )
    def test_no_warnings(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = svd(Matrix(a))
        want = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(res.singular_values, want, atol=1e-12)
        assert_valid_svd(a, atol=1e-12)

