"""Tests for the orthonormal 2D DCT-II / DCT-III pair."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft

from lorafreq.analysis import energy_curve, k_for_energy
from lorafreq.container import merge_delta, pair_lora
from lorafreq.dct import (
    _BLOCK,
    _BLOCK_WORK,
    _CHUNK_ENTRIES,
    Spectrum,
    _dct_axis,
    _factored_product,
    _factored_rows,
    _idct_axis,
    _row_spans,
    _step_lines,
    dct2,
    dct2_factored,
    dct2_reference,
    idct2,
    scatter_idct2,
)
from lorafreq.fixtures import (
    FixtureSpec,
    generate,
    generate_set,
    ramp_specs,
    repeat_specs,
)
from lorafreq.linalg import Matrix
from oracles import idct2_reference


def dct2_oracle(x: np.ndarray) -> np.ndarray:
    """Literal quadruple-loop evaluation of the definitional sum."""
    m, n = x.shape
    out = np.zeros((m, n))
    for u in range(m):
        au = math.sqrt(1.0 / m) if u == 0 else math.sqrt(2.0 / m)
        for v in range(n):
            av = math.sqrt(1.0 / n) if v == 0 else math.sqrt(2.0 / n)
            acc = 0.0
            for i in range(m):
                cu = math.cos(math.pi * (2 * i + 1) * u / (2 * m))
                for j in range(n):
                    cv = math.cos(math.pi * (2 * j + 1) * v / (2 * n))
                    acc += x[i, j] * cu * cv
            out[u, v] = au * av * acc
    return out


class TestDct2:
    def test_constant_matrix_concentrates_at_dc(self):
        f = dct2(Matrix(np.ones((4, 4)))).coefficients.array
        assert f[0, 0] == pytest.approx(4.0, abs=1e-12)
        rest = f.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-12

    def test_impulse_row(self):
        f = dct2(Matrix([[1.0, 0.0, 0.0, 0.0]])).coefficients.array
        np.testing.assert_allclose(
            f[0], [0.5, 0.65328, 0.5, 0.27060], atol=1e-4
        )

    def test_matches_definitional_sum(self):
        rng = np.random.default_rng(60)
        x = rng.standard_normal((5, 3))
        want = dct2_oracle(x)
        np.testing.assert_allclose(dct2(Matrix(x)).coefficients.array, want, atol=1e-12)
        np.testing.assert_allclose(
            dct2_reference(Matrix(x)).coefficients.array, want, atol=1e-12
        )

    def test_parseval(self):
        rng = np.random.default_rng(61)
        x = Matrix(rng.standard_normal((48, 64)))
        f = dct2(x)
        assert np.linalg.norm(f.coefficients.array) == pytest.approx(
            np.linalg.norm(x.array), rel=1e-10
        )

    def test_linearity(self):
        rng = np.random.default_rng(62)
        x = rng.standard_normal((9, 7))
        y = rng.standard_normal((9, 7))
        combo = dct2(Matrix(2.5 * x - 1.25 * y)).coefficients.array
        parts = 2.5 * dct2(Matrix(x)).coefficients.array
        parts -= 1.25 * dct2(Matrix(y)).coefficients.array
        np.testing.assert_allclose(combo, parts, rtol=1e-10, atol=1e-12)

    def test_pure_mode_lands_on_its_row(self):
        m, n, u0 = 12, 7, 5
        i = np.arange(m)
        col = np.cos(np.pi * (2 * i + 1) * u0 / (2 * m))
        x = np.tile(col.reshape(-1, 1), (1, n))
        f = dct2(Matrix(x)).coefficients.array
        mask = np.zeros_like(f, dtype=bool)
        mask[u0, 0] = True
        assert abs(f[u0, 0]) > 1.0
        assert np.abs(f[~mask]).max() < 1e-12

    def test_shape_preserved(self):
        f = dct2(Matrix(np.ones((3, 8))))
        assert f.coefficients.shape == (3, 8)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (2, 2), (48, 64), (700, 333)]
    )
    def test_within_its_bound_of_scipy(self, shape):
        x = np.random.default_rng(shape[0] * 1000 + shape[1]).standard_normal(shape)
        got = dct2(Matrix(x)).coefficients.array
        want = fft.dctn(x, type=2, norm="ortho")
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= 2 * eps * np.linalg.norm(x)

    def test_holds_one_copy_of_the_input(self, peak_alloc):
        x = Matrix(np.random.default_rng(99).standard_normal((512, 512)))
        dct2(x)  # numpy.fft's one-time set-up
        _, peak = peak_alloc(dct2, x)
        assert peak <= 1.2 * 8 * 512 * 512


class TestIdct2:
    def test_dc_only_spectrum_reconstructs_constant(self):
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = 4.0
        x = idct2(Spectrum(Matrix(coeffs)))
        np.testing.assert_allclose(x.array, np.ones((4, 4)), atol=1e-12)

    def test_zero_spectrum(self):
        x = idct2(Spectrum(Matrix(np.zeros((5, 6)))))
        np.testing.assert_array_equal(x.array, np.zeros((5, 6)))

    def test_round_trip_random_shapes(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            m = int(rng.integers(1, 129))
            n = int(rng.integers(1, 97))
            x = rng.standard_normal((m, n))
            back = idct2(dct2(Matrix(x))).array
            err = np.linalg.norm(back - x) / max(np.linalg.norm(x), 1e-300)
            assert err < 1e-10

    def test_reference_round_trip(self):
        rng = np.random.default_rng(64)
        x = rng.standard_normal((10, 13))
        back = idct2_reference(dct2_reference(Matrix(x))).array
        np.testing.assert_allclose(back, x, atol=1e-12)


class TestScatterIdct2:
    def test_matches_idct2_of_the_scattered_spectrum(self):
        rng = np.random.default_rng(96)
        indices = np.array([0, 3, 17, 40])
        values = rng.standard_normal(4)
        full = np.zeros(6 * 7)
        full[indices] = values
        want = idct2(Spectrum(Matrix(full.reshape(6, 7)))).array
        got = scatter_idct2((6, 7), indices, values).array
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaves_the_values_untouched(self, dtype):
        values = np.array([4.0, -1.5, 0.25], dtype=dtype)
        scatter_idct2((4, 4), np.array([0, 5, 15]), values)
        np.testing.assert_array_equal(values, np.array([4.0, -1.5, 0.25], dtype))
        assert values.flags.writeable

    def test_non_finite_value_raises(self):
        with pytest.raises(ValueError, match="finite"):
            scatter_idct2((3, 3), np.array([4]), np.array([np.inf]))


class TestReference:
    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(65)
        x = Matrix(rng.standard_normal((16, 16)))
        np.testing.assert_allclose(
            dct2_reference(x).coefficients.array,
            dct2(x).coefficients.array,
            atol=1e-11,
        )

    def test_single_element_is_identity(self):
        f = dct2_reference(Matrix([[3.75]]))
        assert f.coefficients.array[0, 0] == pytest.approx(3.75, rel=1e-15)

    def test_two_point_closed_form(self):
        a, b = 2.0, -0.5
        f = dct2_reference(Matrix([[a], [b]])).coefficients.array
        root2 = math.sqrt(2.0)
        np.testing.assert_allclose(
            f[:, 0], [(a + b) / root2, (a - b) / root2], rtol=1e-14
        )

    def test_non_power_of_two_sizes(self):
        rng = np.random.default_rng(66)
        for shape in [(6, 10), (12, 12), (48, 20), (3, 3)]:
            x = Matrix(rng.standard_normal(shape))
            np.testing.assert_allclose(
                dct2_reference(x).coefficients.array,
                dct2(x).coefficients.array,
                atol=1e-11,
            )


class TestDctAxis:
    """The in-place forward kernel against scipy's orthonormal DCT-II."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("r", [1, 3, 8, 16])
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 51, 128, 768, 4096])
    def test_matches_scipy(self, length, r, axis):
        rng = np.random.default_rng(length * 100 + r * 10 + axis)
        x = rng.standard_normal((length, r) if axis == 0 else (r, length))
        got = x.copy()
        assert _dct_axis(got, axis) is None  # the result is written into got
        want = fft.dct(x, type=2, norm="ortho", axis=axis)
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= 4 * eps * np.linalg.norm(x)
        again = x.copy()
        _dct_axis(again, axis)
        assert again.tobytes() == got.tobytes()


@pytest.mark.parametrize("kernel", [_dct_axis, _idct_axis])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("extra", [-1, 1, "2x+1"])
@pytest.mark.parametrize("length", [51, 768])  # steps of 80 and of _BLOCK lines
def test_kernel_bits_do_not_follow_the_block(kernel, axis, extra, length):
    """Each line comes out as it would alone, byte for byte, so no output
    depends on how the lines fall into steps."""
    step = _step_lines(length)
    lines = 2 * step + 1 if extra == "2x+1" else step + extra
    rng = np.random.default_rng(length * 100 + lines * 10 + axis)
    x = rng.standard_normal((length, lines) if axis == 0 else (lines, length))
    # Buffers this small step by the floor under either kernel's rule.
    assert _step_lines(length, x.size) == step
    whole = x.copy()
    kernel(whole, axis)
    for i in range(lines):
        line = x[:, i : i + 1].copy() if axis == 0 else x[i : i + 1].copy()
        kernel(line, axis)
        got = whole[:, i : i + 1] if axis == 0 else whole[i : i + 1]
        assert np.ascontiguousarray(got).tobytes() == line.tobytes()


class TestIdctAxis:
    """The in-place inverse against scipy's orthonormal DCT-III."""

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("lines", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    @pytest.mark.parametrize("length", [1, 2, 3, 7, 51, 128, 768])
    def test_matches_scipy(self, length, lines, axis):
        rng = np.random.default_rng(length * 100 + lines * 10 + axis)
        f = rng.standard_normal((length, lines) if axis == 0 else (lines, length))
        x = f.copy()
        assert _idct_axis(x, axis) is None  # the result is written into x
        want = fft.idct(f, type=2, norm="ortho", axis=axis)
        eps = np.finfo(float).eps
        assert np.max(np.abs(x - want)) <= 4 * eps * np.linalg.norm(f)

    @pytest.mark.parametrize(
        "shape, axis",
        [pytest.param((512, 512), axis, id=str(axis)) for axis in (0, 1)]
        + [
            pytest.param((m, n), axis, id=f"{m}x{n}-{axis}")
            for m, n in [(768, 768), (2048, 512), (512, 2048)]
            for axis in (0, 1)
        ],
    )
    def test_scratch_is_a_tenth_of_the_buffer(self, shape, axis):
        x = np.random.default_rng(97).standard_normal(shape)
        _idct_axis(x[:2].copy(), 1)  # numpy.fft's one-time set-up
        tracemalloc.start()
        try:
            _idct_axis(x, axis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * x.nbytes

    @pytest.mark.parametrize(
        "shape, column_blocks",
        [
            ((51, 9), 1),  # odd length, fewer lines than one step
            ((768, 768), 41),  # steps of 19 lines, the last one 8
            ((1000, 1001), 41),  # even columns in steps of 25, the last one 1
            ((1001, 1000), 40),  # odd columns in steps of 25
            ((128, 256), 8),
            ((2, 1), 1),
            ((1, 3), 1),
        ],
    )
    def test_column_pass_is_the_row_pass_of_the_transpose(self, shape, column_blocks):
        """Each axis transforms its lines as the other axis transforms them
        in the transpose, byte for byte, so every dense output keeps its
        bytes whichever axis a line lies along."""
        x = np.random.default_rng(shape[0] * 7 + shape[1]).standard_normal(shape)
        assert math.ceil(shape[1] / _step_lines(shape[0], x.size)) == column_blocks
        for axis in (0, 1):
            direct = x.copy()
            _idct_axis(direct, axis)
            transposed = x.T.copy()
            _idct_axis(transposed, 1 - axis)
            assert direct.tobytes() == np.ascontiguousarray(transposed.T).tobytes()

    @pytest.mark.parametrize(
        "shape",
        [(1, _BLOCK + 1), (_BLOCK - 1, _BLOCK), (_BLOCK + 1, 51), (768, _BLOCK + 1)],
    )
    def test_idct2_inverts_dct2(self, shape):
        x = np.random.default_rng(98).standard_normal(shape)
        back = idct2(dct2(Matrix(x))).array
        assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-10


def fixture_pair(kind, m, n, r=1, seed=0, noise_level=0.0):
    spec = FixtureSpec(kind=kind, m=m, n=n, r=r, seed=seed, noise_level=noise_level)
    return pair_lora(generate(spec)).pairs[0]


# The sets the benchmark's bert-, svd-ramp- and fullrank-shaped workloads
# build at seeds 11-20, as the distinct fixture specs they contain.
BENCH_SHAPED = {
    "bert": {
        spec
        for seed in range(11, 21)
        for spec in repeat_specs(FixtureSpec("mixed", 768, 768, 8, seed, 0.3), 12)
    },
    "svd-ramp": {
        spec
        for seed in range(11, 21)
        for spec in ramp_specs("mixed", 128, 128, 12, seed, 0.3)
    },
    "fullrank": {
        spec
        for seed in range(11, 21)
        for spec in repeat_specs(
            FixtureSpec("dense_gaussian", 128, 128, 1, seed), 6
        )
    },
}


class TestDct2Factored:
    """The spectrum from the factors against dct2 of the merged update."""

    @pytest.mark.parametrize("scale", [1.0, 0.3, 37.5])
    @pytest.mark.parametrize(
        "kind, m, n, r, noise",
        [
            ("gaussian_iid", 60, 40, 5, 0.0),
            ("mixed", 40, 72, 4, 0.3),
            ("smooth_lowrank", 33, 47, 1, 0.0),
            ("gaussian_iid", 24, 36, 24, 0.0),
            ("dense_gaussian", 48, 32, 1, 0.0),
            ("dense_gaussian", 32, 48, 1, 0.0),
            ("gaussian_iid", 1, 1, 1, 0.0),
            ("mixed", 768, 51, 8, 0.3),
        ],
        ids=["m>n", "m<n", "r=1", "r=min", "identity-A", "identity-B", "1x1", "odd-n"],
    )
    def test_within_rounding_of_merged_dct(self, kind, m, n, r, noise, scale):
        pair = fixture_pair(kind, m, n, r, seed=11, noise_level=noise)
        pair = dataclasses.replace(pair, scale=scale)
        got = dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale)
        want = dct2(merge_delta(pair)).coefficients.array
        eps = np.finfo(float).eps
        b, a = pair.b_matrix.array, pair.a_matrix.array
        bound = 8 * eps * scale * np.linalg.norm(b) * np.linalg.norm(a)
        assert got.coefficients.shape == (m, n)
        assert np.max(np.abs(got.coefficients.array - want)) <= bound

    def test_scale_applied_to_the_product(self):
        # scale * B alone overflows binary64; the update scale * (B @ A) is 2e10.
        b = Matrix(np.full((4, 2), 1e10))
        a = Matrix(np.full((2, 3), 1e-300))
        got = dct2_factored(b, a, 1e300).coefficients.array
        want = dct2(Matrix(1e300 * (b.array @ a.array))).coefficients.array
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-4)

    @pytest.mark.parametrize("shape", sorted(BENCH_SHAPED))
    def test_k90_counts_equal_on_bench_shaped_sets(self, shape):
        specs = sorted(BENCH_SHAPED[shape], key=lambda s: (s.seed, s.r))
        for pair in pair_lora(generate_set(specs)).pairs:
            factored = dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale)
            merged = dct2(merge_delta(pair))
            assert (
                k_for_energy(energy_curve(factored)).coeff_count_90
                == k_for_energy(energy_curve(merged)).coeff_count_90
            ), pair.prefix


def chunk_bounds(m, n, r):
    """(top, bottom) rows of the chunks ``_factored_rows`` should yield: runs
    of whole ``_row_spans`` spans, each as long as fits in _CHUNK_ENTRIES
    entries, and at least one span."""
    bounds = []
    for start, stop in _row_spans(m, n, r):
        if bounds and (stop - bounds[-1][0]) * n <= _CHUNK_ENTRIES:
            bounds[-1] = (bounds[-1][0], stop)
        else:
            bounds.append((start, stop))
    return bounds


class TestFactoredRows:
    """Every command reads the factored product in row chunks; they must be
    the product's rows bit for bit, or the sparse file's bytes would follow
    how the BLAS rounds each shape."""

    @pytest.mark.parametrize(
        "m, n, r", [(1, 9, 1), (3, 5, 2), (257, 1024, 16), (700, 333, 8), (5, 70000, 4)]
    )
    def test_spans_tile_the_rows(self, m, n, r):
        spans = _row_spans(m, n, r)
        assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
        assert spans[-1][1] == m
        rows = max(1, _BLOCK_WORK // (n * r))
        assert all(0 < stop - start <= rows for start, stop in spans)

    @pytest.mark.parametrize(
        "kind, m, n, r, noise",
        [
            ("gaussian_iid", 257, 1024, 16, 0.0),  # a last chunk of one row
            ("mixed", 700, 333, 8, 0.3),  # rounds unlike one 700-row product
            ("mixed", 768, 768, 8, 0.3),
            ("gaussian_iid", 129, 600, 64, 0.0),
            ("dense_gaussian", 300, 300, 1, 0.0),  # r = n
            ("gaussian_iid", 4, 70000, 4, 0.0),  # one-row spans
            ("dense_gaussian", 600, 400, 1, 0.0),  # r = n, one-row spans
            ("gaussian_iid", 3, 200000, 1, 0.0),  # one span over _CHUNK_ENTRIES
        ],
        ids=["257x1024-r16", "700x333-r8", "768x768-r8", "129x600-r64", "fullrank-300",
             "4x70000", "fullrank-600x400", "3x200000-r1"],
    )
    def test_blocks_are_the_product_rows(self, kind, m, n, r, noise):
        pair = fixture_pair(kind, m, n, r, seed=12, noise_level=noise)
        args = (pair.b_matrix, pair.a_matrix, 0.7)
        blocks = _factored_rows(*args)
        want = _factored_product(*args).reshape(-1)
        bounds = chunk_bounds(m, n, pair.rank)
        for _ in range(2):  # every call yields the same blocks
            got = []
            for block in blocks():  # one scratch chunk, overwritten by the next
                assert block.flags.writeable
                got.append(block.copy())
            assert [block.size for block in got] == [
                (bottom - top) * n for top, bottom in bounds
            ]
            assert np.concatenate(got).tobytes() == want.tobytes()
        assert (len(got) > 1) == (m * n > _CHUNK_ENTRIES)

    @pytest.mark.parametrize(
        "m, n, r",
        [(257, 1024, 16), (700, 333, 8), (300, 300, 300), (3, 200000, 1), (5, 9, 2)],
    )
    @pytest.mark.parametrize("into", ["scratch", "out"])
    def test_each_gemm_covers_one_span(self, m, n, r, into, monkeypatch):
        """Chunking changes what is yielded, never which gemms form it."""
        rng = np.random.default_rng(3)
        blocks = _factored_rows(
            Matrix(rng.standard_normal((m, r))), Matrix(rng.standard_normal((r, n))), 0.5
        )
        calls = []
        matmul = np.matmul

        def spy(x, y, out):
            calls.append((x.__array_interface__["data"][0], x.shape[0], out.shape))
            return matmul(x, y, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        out = np.empty((m, n)) if into == "out" else None
        yielded = sum(block.size for block in blocks(out))
        monkeypatch.undo()
        first, row_bytes = calls[0][0], r * 8
        got = [((ptr - first) // row_bytes, (ptr - first) // row_bytes + rows)
               for ptr, rows, _ in calls]
        assert got == _row_spans(m, n, r)
        assert all(shape == (rows, n) for _, rows, shape in calls)
        assert yielded == m * n

    def test_dct2_factored_holds_one_spectrum(self, peak_alloc):
        pair = fixture_pair("mixed", 1024, 1024, 16, seed=11, noise_level=0.3)
        args = (pair.b_matrix, pair.a_matrix, pair.scale)
        dct2_factored(*args)  # numpy.fft's one-time set-up
        _, peak = peak_alloc(dct2_factored, *args)
        assert peak <= 1.15 * 8 * 1024 * 1024
