"""Tests for spectral energy curves, k90, masking, and sweeps."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import fft

from lorafreq import dct
from lorafreq.analysis import (
    MaskResult,
    SweepPoint,
    dct_k90,
    energy_curve,
    k_for_energy,
    mask_count,
    reconstruct,
    sweep,
    _select,
    topk_mask,
)
from lorafreq.container import LoraPair, merge_delta, pair_lora
from lorafreq.dct import Spectrum, dct2
from lorafreq.errors import ContainerError, ShapeMismatch, ZeroSpectrum
from lorafreq.fixtures import FixtureSpec, generate
from lorafreq.linalg import Matrix
from lorafreq.report import analysis_report


def spectrum_of(values) -> Spectrum:
    return Spectrum(Matrix(values))


def dct_mode(length: int, index: int) -> np.ndarray:
    i = np.arange(length)
    scale = math.sqrt(1.0 / length) if index == 0 else math.sqrt(2.0 / length)
    return scale * np.cos(np.pi * (2 * i + 1) * index / (2 * length))


CURVE_SPECTRA = {
    "ties": [[3.0, -3.0, 1.0, 3.0], [-1.0, 1.0, 3.0, -3.0]],
    "signed-zeros": [[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [0.0, 2.0, -0.0]],
    # Squares that are subnormal (1e-160**2), or that underflow to +0.0.
    "subnormal": [[1e-160, -1e-160, 3e-155], [2e-170, -0.0, 5e-162]],
    "all-zero": np.zeros((3, 5)),
}


class TestEnergyCurve:
    def test_two_values(self):
        curve = energy_curve(spectrum_of([[2.0, 1.0]]))
        np.testing.assert_array_equal(curve.cumulative_fraction, [0.8, 1.0])
        assert curve.total_energy == 5.0
        assert not curve.is_zero

    def test_constant_matrix_spectrum(self):
        curve = energy_curve(dct2(Matrix(np.full((4, 4), 2.5))))
        np.testing.assert_allclose(curve.cumulative_fraction, np.ones(16), atol=1e-15)
        assert curve.cumulative_fraction[0] == 1.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(80)
        f = dct2(Matrix(rng.standard_normal((32, 32))))
        curve = energy_curve(f)

        energies = sorted(
            (float(v) * float(v) for v in f.coefficients.data), reverse=True
        )
        acc = 0.0
        prefix = []
        for e in energies:
            acc += e
            prefix.append(acc)
        total = prefix[-1]
        np.testing.assert_array_equal(
            curve.cumulative_fraction, [p / total for p in prefix]
        )
        assert curve.total_energy == total

    def test_zero_spectrum_flagged(self):
        curve = energy_curve(spectrum_of(np.zeros((3, 3))))
        assert curve.is_zero
        assert curve.total_energy == 0.0
        assert curve.cumulative_fraction.size == 0

    def test_last_fraction_is_exactly_one(self):
        rng = np.random.default_rng(81)
        curve = energy_curve(dct2(Matrix(rng.standard_normal((17, 23)))))
        assert curve.cumulative_fraction[-1] == 1.0
        assert np.all(np.diff(curve.cumulative_fraction) >= 0.0)

    def test_holds_one_array_of_the_spectrum_size(self, peak_alloc):
        rng = np.random.default_rng(82)
        f = spectrum_of(rng.standard_normal((512, 512)))
        _, peak = peak_alloc(energy_curve, f)
        assert peak <= 1.1 * 8 * 512 * 512

    def test_holds_two_arrays_of_the_spectrum_size(self, peak_alloc):
        # dct_k90 holds the spectrum and the curve's one copy of it.
        delta = Matrix(np.random.default_rng(82).standard_normal((512, 512)))
        _, peak = peak_alloc(dct_k90, delta)
        assert peak <= 2.1 * 8 * 512 * 512

    @pytest.mark.parametrize("name", sorted(CURVE_SPECTRA))
    def test_bytes_match_sort_then_reverse(self, name):
        flat = np.asarray(CURVE_SPECTRA[name], dtype=np.float64).reshape(-1)
        curve = energy_curve(spectrum_of(CURVE_SPECTRA[name]))
        energies = np.sort(flat**2)[::-1]
        prefix = np.cumsum(energies)
        total = float(prefix[-1])
        fraction = prefix / total if total else np.empty(0)
        assert curve.cumulative_fraction.tobytes() == fraction.tobytes()
        assert curve.total_energy == total


class TestKForEnergy:
    def test_boundary_crossing(self):
        curve = energy_curve(spectrum_of([[2.0, 1.0]]))
        s = k_for_energy(curve, 0.9)
        assert s.coeff_count_90 == 2
        assert s.k90_percent == 100.0

    def test_exact_target_hit(self):
        curve = energy_curve(spectrum_of([[3.0, 1.0]]))
        # fractions are [0.9, 1.0]; target 0.9 must pick the first coefficient
        s = k_for_energy(curve, 0.9)
        assert s.coeff_count_90 == 1

    def test_rank_one_smooth_outer_product(self):
        x = np.outer(dct_mode(64, 0), dct_mode(64, 0))
        s = k_for_energy(energy_curve(dct2(Matrix(x))), 0.9)
        assert s.coeff_count_90 == 1
        assert s.k90_percent == pytest.approx(100.0 / 4096.0, rel=1e-12)
        assert s.k90_percent < 0.1

    def test_gaussian_noise_band(self):
        rng = np.random.default_rng(82)
        s = dct_k90(Matrix(rng.standard_normal((256, 256))))
        assert 42.0 < s.k90_percent < 47.0

    def test_zero_spectrum_raises(self):
        with pytest.raises(ZeroSpectrum):
            k_for_energy(energy_curve(spectrum_of(np.zeros((2, 2)))), 0.9)

    def test_bad_target_rejected(self):
        curve = energy_curve(spectrum_of([[1.0, 1.0]]))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                k_for_energy(curve, bad)


class TestMaskCount:
    def test_ten_percent_of_768_square(self):
        assert mask_count(10.0, 768 * 768) == 58983

    def test_floor_at_one(self):
        assert mask_count(1e-6, 100) == 1

    def test_full_retention(self):
        assert mask_count(100.0, 589824) == 589824

    def test_exact_integer_products(self):
        assert mask_count(50.0, 4) == 2
        assert mask_count(20.0, 25) == 5
        assert mask_count(25.0, 64) == 16

    def test_ceil_behaviour(self):
        assert mask_count(10.0, 25) == 3  # 2.5 -> 3


class TestTopkMask:
    def test_full_mask(self):
        f = spectrum_of([[1.0, -2.0], [3.0, 4.0]])
        mask = topk_mask(f, 100.0)
        np.testing.assert_array_equal(mask.retained_flat_indices, [0, 1, 2, 3])
        assert mask.retained_energy_fraction == 1.0
        assert mask.k_count == 4

    def test_tie_break_toward_lower_index(self):
        f = spectrum_of([[3.0, -3.0], [1.0, 0.0]])
        mask = topk_mask(f, 50.0)
        assert mask.k_count == 2
        np.testing.assert_array_equal(mask.retained_flat_indices, [0, 1])
        np.testing.assert_array_equal(mask.retained_values, [3.0, -3.0])
        assert mask.retained_energy_fraction == pytest.approx(18.0 / 19.0, rel=1e-15)

    def test_values_match_indices(self):
        rng = np.random.default_rng(83)
        f = dct2(Matrix(rng.standard_normal((8, 9))))
        mask = topk_mask(f, 25.0)
        np.testing.assert_array_equal(
            mask.retained_values, f.coefficients.data[mask.retained_flat_indices]
        )
        assert np.all(np.diff(mask.retained_flat_indices) > 0)

    def test_selects_largest_magnitudes(self):
        rng = np.random.default_rng(84)
        f = dct2(Matrix(rng.standard_normal((16, 16))))
        mask = topk_mask(f, 10.0)
        kept = np.abs(mask.retained_values).min()
        dropped = np.delete(np.abs(f.coefficients.data), mask.retained_flat_indices)
        assert kept >= dropped.max()

    def test_nesting_across_k(self):
        rng = np.random.default_rng(85)
        f = dct2(Matrix(rng.standard_normal((12, 10))))
        previous: set[int] = set()
        for k in (5.0, 10.0, 20.0, 50.0, 100.0):
            current = set(topk_mask(f, k).retained_flat_indices.tolist())
            assert previous <= current
            previous = current

    def test_scale_invariant_index_set(self):
        rng = np.random.default_rng(86)
        x = rng.standard_normal((14, 11))
        for c in (1e-3, 4.0, 1e3):
            for k in (5.0, 33.0, 90.0):
                base = topk_mask(dct2(Matrix(x)), k)
                scaled = topk_mask(dct2(Matrix(c * x)), k)
                np.testing.assert_array_equal(
                    base.retained_flat_indices, scaled.retained_flat_indices
                )

    def test_energy_fraction_invariant(self):
        rng = np.random.default_rng(87)
        f = dct2(Matrix(rng.standard_normal((20, 20))))
        mask = topk_mask(f, 30.0)
        total = float(np.sum(f.coefficients.data ** 2))
        want = float(np.sum(mask.retained_values**2)) / total
        assert mask.retained_energy_fraction == pytest.approx(want, abs=1e-12)

    def test_bad_k_rejected(self):
        f = spectrum_of([[1.0]])
        for bad in (0.0, -5.0, 100.1):
            with pytest.raises(ValueError):
                topk_mask(f, bad)

    def test_zero_energy_raises(self):
        for scale in (0.0, 1e-170):
            with pytest.raises(ZeroSpectrum):
                topk_mask(spectrum_of(np.full((3, 4), scale)), 50.0)


def reference_selection(flat: np.ndarray, k_percent: float):
    """(indices, values, fraction) of a stable descending-|F| sort's k% prefix."""
    k_count = mask_count(k_percent, flat.size)
    chosen = np.sort(np.argsort(-np.abs(flat), kind="stable")[:k_count])
    values = flat[chosen]
    if k_count == flat.size:
        fraction = 1.0
    else:
        fraction = float(np.sum(values**2)) / float(np.sum(flat**2))
        fraction = min(1.0, max(0.0, fraction))
    return chosen, values, fraction


def smooth_lowrank_delta(r: int) -> Matrix:
    """64x96 smooth update whose spectrum is r^2 spikes and exact zeros."""
    file = generate(FixtureSpec(kind="smooth_lowrank", m=64, n=96, r=r, seed=3))
    return merge_delta(pair_lora(file).pairs[0])


TIE_SPECTRA = {
    "tie-run-straddles-cut": [[5.0, -4.0, 3.0, 3.0, -3.0, 3.0],
                              [3.0, -3.0, 3.0, 1.0, 0.0, 2.0]],
    "plus-minus-pairs": [[2.0, -2.0, 1.0, -1.0],
                         [-1.0, 1.0, 2.0, -2.0],
                         [0.5, -0.5, -2.0, 2.0]],
    "signed-zeros": [[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [0.0, 2.0, -0.0]],
    # 3.125 and 3.0 share a histogram bucket: ties at 3.0 below a larger mate.
    "ties-under-a-bucket-mate": [[3.125, -3.0, 3.0, 1.0],
                                 [-3.0, 3.125, 0.5, 3.0]],
    "all-equal-magnitude": np.where(
        np.random.default_rng(7).random((5, 9)) < 0.5, -2.5, 2.5
    ),
}
ORACLE_K = [1e-9, 0.01, 1.0, 5.0, 10.0, 25.0, 50.0, 99.99, 100.0]


class TestTopkOracle:
    """topk_mask equals the prefix of a stable descending-|F| sort, exactly."""

    def assert_matches_reference(self, f: Spectrum, k: float) -> MaskResult:
        flat = f.coefficients.data
        mask = topk_mask(f, k)
        chosen, values, fraction = reference_selection(flat, k)
        assert mask.retained_flat_indices.dtype == np.int64
        assert np.array_equal(mask.retained_flat_indices, chosen)
        assert mask.retained_values.tobytes() == values.tobytes()
        assert mask.retained_energy_fraction == fraction
        assert mask.k_count == chosen.size
        return mask

    @pytest.mark.parametrize("name", sorted(TIE_SPECTRA))
    def test_every_count_on_tied_spectra(self, name):
        f = spectrum_of(TIE_SPECTRA[name])
        size = f.coefficients.data.size
        for count in range(1, size + 1):
            mask = self.assert_matches_reference(f, 100.0 * count / size)
            assert mask.k_count == count

    @pytest.mark.parametrize("r", [1, 2])
    def test_smooth_lowrank_exact_zero_tail(self, r):
        # scipy's rounding leaves >= 96 exact zeros for r = 2; dct2's leaves 67.
        f = spectrum_of(fft.dctn(smooth_lowrank_delta(r).array, type=2, norm="ortho"))
        assert np.count_nonzero(f.coefficients.data == 0.0) >= 96
        for k in ORACLE_K:
            self.assert_matches_reference(f, k)

    def test_gaussian_single_and_full(self):
        f = dct2(Matrix(np.random.default_rng(95).standard_normal((24, 31))))
        assert self.assert_matches_reference(f, 1e-9).k_count == 1
        assert self.assert_matches_reference(f, 100.0).k_count == 24 * 31

    @pytest.mark.parametrize(
        "delta",
        [
            smooth_lowrank_delta(1),
            smooth_lowrank_delta(2),
            Matrix(np.full((6, 6), 3.0)),
            Matrix(np.kron(np.ones((3, 3)), [[1.0, -1.0], [-1.0, 1.0]])),
            Matrix(np.random.default_rng(96).standard_normal((20, 14))),
            # At k = 25 the explicit error is 3.5e-16, but sqrt(1 - fraction)
            # reads 1.05e-8: the error must come from the dropped energy.
            merge_delta(pair_lora(generate(FixtureSpec(
                kind="smooth_lowrank", m=51, n=56, r=3, seed=11
            ))).pairs[0]),
        ],
        ids=["smooth-r1", "smooth-r2", "constant", "checkerboard", "gaussian",
             "smooth-51x56-r3"],
    )
    def test_sweep_points_match_per_k_reference(self, delta):
        f = dct2(delta)
        flat = f.coefficients.data
        norm = math.sqrt(float(np.sum(delta.array**2)))
        points = sweep(delta, ORACLE_K)
        assert sweep(f, ORACLE_K) == points
        for point, k in zip(points, ORACLE_K):
            chosen, values, fraction = reference_selection(flat, k)
            ref = MaskResult(chosen, values, fraction, float(k), chosen.size)
            sq_error = np.sum((delta.array - reconstruct(f, ref).array) ** 2)
            err = math.sqrt(float(sq_error)) / norm
            assert point.k_percent == float(k)
            fsum_fraction = math.fsum(values**2) / math.fsum(flat**2)
            assert abs(point.retained_energy_fraction - fsum_fraction) <= 1e-15
            assert point.k_count == chosen.size
            assert point.relative_error == pytest.approx(err, rel=0, abs=1e-12)


class TestSelectionCore:
    """_select, the three-pass selection of topk_mask and mask, over several
    row blocks with a ragged last one, against the stable-sort reference."""

    @staticmethod
    def blocks_of(flat: np.ndarray, size: int):
        return lambda: (flat[i : i + size].copy() for i in range(0, flat.size, size))

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("name", sorted(TIE_SPECTRA))
    def test_core_matches_reference(self, name, size):
        flat = spectrum_of(TIE_SPECTRA[name]).coefficients.data
        assert flat.size % size or size == 1
        for k in ORACLE_K:
            chosen, values, _ = reference_selection(flat, k)
            got_chosen, got_values = _select(
                self.blocks_of(flat, size), mask_count(k, flat.size)
            )
            assert got_chosen.dtype == np.int64
            assert np.array_equal(got_chosen, chosen)
            assert got_values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("name", sorted(TIE_SPECTRA))
    def test_topk_mask_across_row_blocks(self, name, monkeypatch):
        values = np.tile(np.asarray(TIE_SPECTRA[name], dtype=float), (3, 1))
        m, n = values.shape
        monkeypatch.setattr(dct, "_BLOCK_WORK", 4 * n)  # 4-row blocks
        spans = dct._row_spans(m, n)
        assert len(spans) > 1 and spans[-1][1] - spans[-1][0] != 4
        f = spectrum_of(values)
        for k in ORACLE_K:
            mask = topk_mask(f, k)
            chosen, kept, fraction = reference_selection(f.coefficients.data, k)
            assert np.array_equal(mask.retained_flat_indices, chosen)
            assert mask.retained_values.tobytes() == kept.tobytes()
            assert mask.retained_energy_fraction == fraction

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, -np.nan])
    def test_non_finite_entry_raises(self, bad):
        flat = np.arange(10.0)
        flat[7] = bad
        with pytest.raises(ContainerError, match="not finite"):
            _select(self.blocks_of(flat, 4), 3)

    @pytest.mark.parametrize("scale", [0.0, -0.0, 1e-170])
    def test_zero_energy_raises(self, scale):
        flat = np.full(10, scale)
        with pytest.raises(ZeroSpectrum):
            _select(self.blocks_of(flat, 4), 3)

    def test_a_square_above_zero_is_kept(self):
        flat = np.zeros(10)
        flat[3] = -1e-150  # its square, 1e-300, is still normal
        chosen, values = _select(self.blocks_of(flat, 4), 1)
        assert chosen.tolist() == [3] and values.tolist() == [-1e-150]

    def test_blocks_that_change_between_passes_raise(self):
        calls = []

        def blocks():
            calls.append(None)
            yield np.arange(8.0) if len(calls) < 3 else np.arange(8.0) / 2

        with pytest.raises(RuntimeError, match="changed between passes"):
            _select(blocks, 4)

    def test_one_bucket_spectrum_holds_one_spectrum(self, peak_alloc):
        """Equal magnitudes put every entry in the boundary bucket, the
        selection's worst case: it holds their |F| and a few row blocks,
        where a copy of the bucket would reach 2 x 8mn."""
        rng = np.random.default_rng(98)
        flat = np.where(rng.random(1024 * 1024) < 0.5, -1.5, 1.5)
        blocks = self.blocks_of(flat, 2**16)
        (chosen, _), peak = peak_alloc(_select, blocks, flat.size // 10)
        assert np.array_equal(chosen, np.arange(flat.size // 10))
        assert peak <= 1.5 * 8 * flat.size


class TestReconstruct:
    def test_full_mask_is_identity(self):
        rng = np.random.default_rng(88)
        x = Matrix(rng.standard_normal((24, 18)))
        f = dct2(x)
        recon = reconstruct(f, topk_mask(f, 100.0))
        err = np.linalg.norm(recon.array - x.array) / np.linalg.norm(x.array)
        assert err < 1e-10

    def test_constant_matrix_single_coefficient(self):
        x = Matrix(np.full((6, 6), 3.0))
        f = dct2(x)
        recon = reconstruct(f, topk_mask(f, 1e-9))
        np.testing.assert_allclose(recon.array, x.array, atol=1e-12)

    def test_parseval_error_identity(self):
        rng = np.random.default_rng(89)
        x = Matrix(rng.standard_normal((64, 64)))
        f = dct2(x)
        mask = topk_mask(f, 20.0)
        recon = reconstruct(f, mask)
        err_sq = float(np.sum((x.array - recon.array) ** 2))
        total = float(np.sum(f.coefficients.data ** 2))
        want = (1.0 - mask.retained_energy_fraction) * total
        assert err_sq == pytest.approx(want, rel=1e-9)

    def test_shape_mismatch(self):
        f_small = spectrum_of(np.ones((2, 2)))
        f_big = dct2(Matrix(np.random.default_rng(90).standard_normal((8, 8))))
        mask = topk_mask(f_big, 80.0)
        with pytest.raises(ShapeMismatch):
            reconstruct(f_small, mask)

    @staticmethod
    def hand_mask(indices, values) -> MaskResult:
        indices = np.asarray(indices, dtype=np.int64)
        return MaskResult(indices, np.asarray(values, dtype=np.float64), 1.0, 50.0, 2)

    @pytest.mark.parametrize(
        "indices, values",
        [([-1, 3], [1.0, 2.0]), ([100, 3], [1.0, 2.0]), ([3, 16], [1.0, 2.0]),
         ([0, 1, 2], [1.0]), ([3, 3], [1.0, 5.0]), ([0, 1, 2], [1.0, 2.0, 3.0])],
        ids=["negative", "past-the-end-first", "past-the-end-last", "one-value-short",
             "repeated", "k-count-disagrees"],
    )
    def test_rejects_a_mask_that_does_not_fit(self, indices, values):
        f = dct2(Matrix(np.random.default_rng(91).standard_normal((4, 4))))
        with pytest.raises(ShapeMismatch):
            reconstruct(f, self.hand_mask(indices, values))

    def test_unsorted_indices_are_applied(self):
        f = dct2(Matrix(np.random.default_rng(92).standard_normal((4, 4))))
        got = reconstruct(f, self.hand_mask([15, 2], [3.0, -1.5])).array
        want = reconstruct(f, self.hand_mask([2, 15], [-1.5, 3.0])).array
        np.testing.assert_array_equal(got, want)


def fsum_sweep_point(flat: np.ndarray, k_percent: float):
    """(k_count, fraction, relative error) of the reference selection, each
    sum taken exactly by math.fsum."""
    chosen, values, _ = reference_selection(flat, k_percent)
    total = math.fsum(flat**2)
    dropped = math.fsum(np.delete(flat, chosen) ** 2)
    return chosen.size, math.fsum(values**2) / total, math.sqrt(dropped / total)


FSUM_SPECTRA = {
    **{
        f"random-1e{e}": spectrum_of(
            10.0**e * np.random.default_rng(98).standard_normal((37, 29))
        )
        for e in (-100, 0, 50)
    },
    "lowrank-r3": dct2(Matrix(
        np.random.default_rng(99).standard_normal((40, 3))
        @ np.random.default_rng(100).standard_normal((3, 30))
    )),
    "smooth-r1": dct2(smooth_lowrank_delta(1)),
    "smooth-51x56-r3": dct2(merge_delta(pair_lora(generate(FixtureSpec(
        kind="smooth_lowrank", m=51, n=56, r=3, seed=11
    ))).pairs[0])),
    **{f"tied-{name}": spectrum_of(v) for name, v in TIE_SPECTRA.items()},
}


class TestSweep:
    @pytest.mark.parametrize("name", sorted(FSUM_SPECTRA))
    def test_points_within_1e15_of_exact_sums(self, name):
        f = FSUM_SPECTRA[name]
        flat = f.coefficients.data
        for point, k in zip(sweep(f, ORACLE_K), ORACLE_K):
            k_count, fraction, error = fsum_sweep_point(flat, k)
            assert point.k_count == k_count
            assert abs(point.retained_energy_fraction - fraction) <= 1e-15
            assert abs(point.relative_error - error) <= 1e-15 * error

    def test_empty_k_list_on_a_zero_spectrum(self):
        assert sweep(Matrix(np.zeros((4, 4))), []) == []
        assert sweep(spectrum_of(np.zeros((4, 4))), []) == []

    def test_holds_one_array_of_the_spectrum_size(self, peak_alloc):
        f = spectrum_of(np.random.default_rng(97).standard_normal((512, 512)))
        points, peak = peak_alloc(sweep, f, ORACLE_K)
        assert len(points) == len(ORACLE_K)
        assert peak <= 1.1 * 8 * 512 * 512

    def test_full_k_near_zero_error(self):
        rng = np.random.default_rng(91)
        points = sweep(Matrix(rng.standard_normal((10, 12))), [100.0])
        assert points[0].relative_error < 1e-10
        assert points[0].retained_energy_fraction == 1.0

    def test_strictly_decreasing_on_gaussian(self):
        rng = np.random.default_rng(92)
        points = sweep(Matrix(rng.standard_normal((32, 32))), [5.0, 10.0, 20.0, 50.0])
        errs = [p.relative_error for p in points]
        assert errs == sorted(errs, reverse=True)
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))

    def test_rank_one_smooth_negligible_error(self):
        x = np.outer(dct_mode(64, 0), dct_mode(64, 0))
        points = sweep(Matrix(x), [10.0])
        assert points[0].relative_error < 1e-10

    def test_error_identity_at_every_k(self):
        rng = np.random.default_rng(93)
        points = sweep(Matrix(rng.standard_normal((20, 14))), [5, 10, 20, 50, 100])
        for p in points:
            assert abs(
                (1.0 - p.retained_energy_fraction) - p.relative_error**2
            ) < 1e-9

    def test_zero_matrix_raises(self):
        with pytest.raises(ZeroSpectrum):
            sweep(Matrix(np.zeros((4, 4))), [10.0])

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            sweep(Matrix(np.ones((2, 2))), [0.0])

    def test_preserves_input_order(self):
        rng = np.random.default_rng(94)
        points = sweep(Matrix(rng.standard_normal((8, 8))), [50.0, 5.0])
        assert [p.k_percent for p in points] == [50.0, 5.0]


class TestLayerHeatmap:
    """The heatmap analysis_report builds from its rows and their pairs."""

    def heatmap(self, entries):
        """The heatmap of (k90, layer index, module kind) rows; a k90 of
        None is a zero update."""
        one = Matrix([[1.0]])
        pairs = tuple(
            LoraPair(f"p{i}", one, one, layer, kind, 1.0)
            for i, (_, layer, kind) in enumerate(entries)
        )
        rows = [
            ({"k90_percent": k90, "zero_flag": k90 is None}, [])
            for k90, _, _ in entries
        ]
        return analysis_report("in.st", pairs, rows, 1.0)["heatmap"]

    def cell(self, heatmap, layer, kind):
        found = [
            c for c in heatmap["cells"]
            if (c["layer"], c["module_kind"]) == (layer, kind)
        ]
        assert len(found) <= 1
        return found[0] if found else None

    def test_two_layers_two_rows(self):
        heatmap = self.heatmap([(38.8, 0, "query"), (26.6, 11, "query")])
        assert heatmap["layers"] == ["0", "11"]
        assert heatmap["module_kinds"] == ["query"]
        assert self.cell(heatmap, "0", "query")["mean_k90"] == 38.8
        assert self.cell(heatmap, "11", "query")["mean_k90"] == 26.6

    def test_duplicates_averaged_with_count(self):
        heatmap = self.heatmap([(30.0, 2, "value"), (40.0, 2, "value")])
        cell = self.cell(heatmap, "2", "value")
        assert cell["mean_k90"] == 35.0
        assert cell["count"] == 2

    def test_unindexed_row_last(self):
        heatmap = self.heatmap([(10.0, None, "query"), (20.0, 3, "query")])
        assert heatmap["layers"] == ["3", "unindexed"]

    def test_missing_cells_absent(self):
        heatmap = self.heatmap([(10.0, 0, "query"), (20.0, 1, "value")])
        assert self.cell(heatmap, "0", "value") is None
        assert self.cell(heatmap, "1", "query") is None
        assert len(heatmap["cells"]) == 2

    def test_numeric_layer_sort(self):
        heatmap = self.heatmap([(1.0, layer, "query") for layer in (10, 2, 1)])
        assert heatmap["layers"] == ["1", "2", "10"]

    def test_zero_updates_leave_no_cell(self):
        heatmap = self.heatmap([(None, 0, "query"), (5.0, 1, "value")])
        assert heatmap["layers"] == ["1"]
        assert heatmap["module_kinds"] == ["value"]
        assert heatmap["cells"] == [
            {"layer": "1", "module_kind": "value", "mean_k90": 5.0, "count": 1}
        ]
