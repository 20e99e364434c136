"""Deterministic fixture generation: PRNG streams and adapter structure."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from lorafreq.analysis import dct_k90, energy_curve
from lorafreq.container import (
    AdapterFile,
    TensorRecord,
    merge_delta,
    pair_lora,
    write_container,
)
from lorafreq.dct import dct2
from lorafreq.errors import InvalidSpec
from lorafreq.fixtures import (
    _BLOCK_PAIRS,
    FixtureSpec,
    GaussianStream,
    SplitMix64,
    _smooth_factors,
    generate,
    generate_set,
    ramp_specs,
    repeat_specs,
)
from oracles import ScalarGaussianStream, ScalarSplitMix64

MASK64 = (1 << 64) - 1


def splitmix_oracle(seed, count):
    """Independent transcription of the published algorithm."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def scalar_fill(gauss, rows, cols, scale=1.0):
    values = [gauss.next() * scale for _ in range(rows * cols)]
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def scalar_set(specs):
    """generate_set rebuilt one next() at a time."""
    tensors = []
    for layer, spec in enumerate(specs):
        m, n, r = spec.m, spec.n, spec.r
        gauss = ScalarGaussianStream(ScalarSplitMix64(spec.seed))
        if spec.kind == "gaussian_iid":
            scale = (1.0 / math.sqrt(r)) ** 0.5
            a = scalar_fill(gauss, r, n, scale)
            b = scalar_fill(gauss, m, r, scale)
        elif spec.kind == "smooth_lowrank":
            a, b = _smooth_factors(m, n, r)
        elif spec.kind == "mixed":
            a, b = _smooth_factors(m, n, r)
            a = a + spec.noise_level * scalar_fill(gauss, r, n)
            b = b + spec.noise_level * scalar_fill(gauss, m, r)
        elif m >= n:
            a, b = np.eye(n), scalar_fill(gauss, m, n)
        else:
            a, b = scalar_fill(gauss, m, n), np.eye(m)
        base = f"layer.{layer}.query"
        tensors.append(TensorRecord(f"{base}.lora_A.weight", "F64", a.shape, a))
        tensors.append(TensorRecord(f"{base}.lora_B.weight", "F64", b.shape, b))
    return AdapterFile(tensors=tuple(tensors), metadata={})


class TestSplitMix64:
    def test_published_vector_seed_zero(self):
        # Known-answer sequence for seed 0 from the reference implementation.
        rng = ScalarSplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_matches_oracle_for_many_seeds(self):
        for seed in [1, 42, 1234567, 2**63, MASK64, 0xDEADBEEF]:
            rng = ScalarSplitMix64(seed)
            assert [rng.next_u64() for _ in range(50)] == splitmix_oracle(seed, 50)

    def test_seed_wraps_to_64_bits(self):
        wrapped, zero = SplitMix64(2**64), SplitMix64(0)
        assert wrapped.next_block(3).tolist() == zero.next_block(3).tolist()

    def test_unit_interval_is_half_open_at_zero(self):
        class Forced(SplitMix64):
            def next_block(self, count):
                return np.array([0, MASK64], dtype=np.uint64)

        # All-zero bits map to 2^-53, all-one bits to exactly 1.0.
        assert Forced(0).next_unit_block(2).tolist() == [2.0**-53, 1.0]

    @pytest.mark.parametrize("seed", [0, 2**63, MASK64])
    def test_block_equals_scalar_draws(self, seed):
        # Seeds near 2^64 make seed + i*gamma wrap inside the block.
        block, scalar = ScalarSplitMix64(seed), ScalarSplitMix64(seed)
        got = block.next_block(300)
        assert got.dtype == np.uint64
        assert got.tolist() == [scalar.next_u64() for _ in range(300)]
        assert block.next_u64() == scalar.next_u64()

    def test_unit_block_equals_scalar_units(self):
        block, scalar = SplitMix64(MASK64), ScalarSplitMix64(MASK64)
        got = block.next_unit_block(301)
        assert got.tolist() == [scalar.next_unit() for _ in range(301)]

    def test_unit_samples_in_range(self):
        u = SplitMix64(9).next_unit_block(2000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)


class TestGaussianStream:
    def test_frozen_reference_values(self):
        # Regression anchor: first draws for seed 42, exact binary64.
        got = GaussianStream(SplitMix64(42)).fill(1, 5).ravel().tolist()
        expected = [
            0.41471975043153003,
            0.652681222151943,
            -0.8918862136277573,
            1.3268335628141055,
            1.729593087937403,
        ]
        assert got == expected

    def test_two_uniforms_per_pair(self):
        # 4 normals must consume exactly 4 raw outputs (2 per pair).
        rng = SplitMix64(7)
        GaussianStream(rng).fill(1, 4)
        expected_state = SplitMix64(7)
        expected_state.next_block(4)
        assert rng.next_block(1).tolist() == expected_state.next_block(1).tolist()

    def test_moments(self):
        draws = GaussianStream(SplitMix64(2024)).fill(1, 20000)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05

    def test_fill_row_major_order(self):
        a = GaussianStream(SplitMix64(5)).fill(3, 4)
        g = ScalarGaussianStream(ScalarSplitMix64(5))
        flat = [g.next() for _ in range(12)]
        np.testing.assert_array_equal(a.ravel(), flat)

    @pytest.mark.parametrize("carried", [0, 1, 2])
    @pytest.mark.parametrize(
        "shape",
        [(0, 5), (1, 1), (3, 5), (4, 4), (2, _BLOCK_PAIRS), (3, _BLOCK_PAIRS + 1)],
    )
    def test_fill_equals_next_stream(self, carried, shape):
        # An odd `carried` leaves a spare for fill to take first; an odd size
        # leaves one behind. 2 x _BLOCK_PAIRS takes exactly one block (with a
        # spare carried in, its last sine is left over); the last spans two.
        blocked = ScalarGaussianStream(ScalarSplitMix64(8))
        scalar = ScalarGaussianStream(ScalarSplitMix64(8))
        for _ in range(carried):
            assert blocked.next() == scalar.next()
        got = blocked.fill(*shape, 0.75)
        want = [scalar.next() * 0.75 for _ in range(shape[0] * shape[1])]
        assert got.shape == shape
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert [blocked.next() for _ in range(3)] == [scalar.next() for _ in range(3)]

    def test_fill_peak_memory(self, peak_alloc):
        # 16 blocks: one block's arrays and float lists are small next to the
        # output, where a fill through whole-size lists holds ~15x the output.
        g = GaussianStream(SplitMix64(1))
        out, peak = peak_alloc(g.fill, 32, _BLOCK_PAIRS)
        assert peak <= 1.5 * out.nbytes

    def test_fill_scale(self):
        a = GaussianStream(SplitMix64(5)).fill(2, 2, 0.5)
        b = GaussianStream(SplitMix64(5)).fill(2, 2)
        np.testing.assert_array_equal(a, b * 0.5)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="perlin", m=4, n=4)

    def test_rank_bounds(self):
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="gaussian_iid", m=4, n=8, r=5)
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="gaussian_iid", m=4, n=8, r=0)

    def test_dimensions_positive(self):
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="gaussian_iid", m=0, n=8)

    def test_noise_only_for_mixed(self):
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="smooth_lowrank", m=8, n=8, r=2, noise_level=0.1)
        FixtureSpec(kind="mixed", m=8, n=8, r=2, noise_level=0.1)

    @pytest.mark.parametrize("level", [-0.1, float("nan"), float("inf")])
    def test_noise_message_names_value(self, level):
        with pytest.raises(InvalidSpec, match=f"finite and >= 0, got {level}$"):
            FixtureSpec(kind="mixed", m=8, n=8, r=2, noise_level=level)

    def test_noise_nonnegative_finite(self):
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="mixed", m=8, n=8, r=2, noise_level=-0.1)
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="mixed", m=8, n=8, r=2, noise_level=float("nan"))

    def test_seed_range(self):
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="gaussian_iid", m=4, n=4, seed=-1)
        with pytest.raises(InvalidSpec):
            FixtureSpec(kind="gaussian_iid", m=4, n=4, seed=2**64)


class TestGenerate:
    def test_names_and_shapes(self):
        file = generate(FixtureSpec(kind="gaussian_iid", m=12, n=20, r=3, seed=1))
        assert file.names() == ["layer.0.query.lora_A.weight", "layer.0.query.lora_B.weight"]
        assert file.tensor("layer.0.query.lora_A.weight").shape == (3, 20)
        assert file.tensor("layer.0.query.lora_B.weight").shape == (12, 3)
        assert all(t.dtype == "F64" for t in file.tensors)

    def test_pairs_cleanly(self):
        file = generate(FixtureSpec(kind="gaussian_iid", m=12, n=20, r=3, seed=1))
        result = pair_lora(file)
        assert len(result.pairs) == 1
        assert not result.orphans
        pair = result.pairs[0]
        assert pair.layer_index == 0
        assert pair.module_kind == "query"
        assert pair.rank == 3
        assert pair.scale == 1.0
        assert pair.out_shape == (12, 20)

    def test_deterministic_bytes(self):
        spec = FixtureSpec(kind="mixed", m=16, n=24, r=4, seed=77, noise_level=0.3)
        assert write_container(generate(spec)) == write_container(generate(spec))

    def test_seed_changes_output(self):
        a = generate(FixtureSpec(kind="gaussian_iid", m=8, n=8, r=2, seed=1))
        b = generate(FixtureSpec(kind="gaussian_iid", m=8, n=8, r=2, seed=2))
        assert write_container(a) != write_container(b)

    def test_gaussian_iid_unit_delta_variance(self):
        # Entry variance 1/sqrt(r) in each factor gives a unit-variance update.
        spec = FixtureSpec(kind="gaussian_iid", m=96, n=96, r=16, seed=3)
        delta = merge_delta(pair_lora(generate(spec)).pairs[0])
        v = delta.array.var()
        assert 0.8 < v < 1.25

    def test_gaussian_iid_factor_scale(self):
        spec = FixtureSpec(kind="gaussian_iid", m=64, n=64, r=16, seed=4)
        a = generate(spec).tensor("layer.0.query.lora_A.weight").as_matrix()
        v = a.array.var()
        expected = 1.0 / math.sqrt(16)
        assert abs(v - expected) / expected < 0.25


class TestSmoothLowrank:
    def test_spectrum_is_unit_diagonal_block(self):
        spec = FixtureSpec(kind="smooth_lowrank", m=32, n=48, r=5, seed=0)
        delta = merge_delta(pair_lora(generate(spec)).pairs[0])
        coeffs = dct2(delta).coefficients.array
        expected = np.zeros((32, 48))
        expected[:5, :5] = np.eye(5)
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_seed_is_irrelevant(self):
        a = generate(FixtureSpec(kind="smooth_lowrank", m=16, n=16, r=2, seed=1))
        b = generate(FixtureSpec(kind="smooth_lowrank", m=16, n=16, r=2, seed=99))
        assert write_container(a) == write_container(b)

    @pytest.mark.parametrize("r", [1, 8, 10])
    def test_k90_count_is_ceil_of_ninety_percent_of_rank(self, r):
        spec = FixtureSpec(kind="smooth_lowrank", m=64, n=64, r=r, seed=0)
        delta = merge_delta(pair_lora(generate(spec)).pairs[0])
        summary = dct_k90(delta)
        assert summary.coeff_count_90 == math.ceil(0.9 * r)

    def test_factors_are_orthonormal_modes(self):
        spec = FixtureSpec(kind="smooth_lowrank", m=24, n=36, r=4, seed=0)
        file = generate(spec)
        a = file.tensor("layer.0.query.lora_A.weight").as_matrix().array
        b = file.tensor("layer.0.query.lora_B.weight").as_matrix().array
        np.testing.assert_allclose(a @ a.T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(b.T @ b, np.eye(4), atol=1e-12)


class TestMixed:
    def test_zero_noise_equals_smooth(self):
        mixed = generate(FixtureSpec(kind="mixed", m=16, n=16, r=3, seed=5))
        smooth = generate(FixtureSpec(kind="smooth_lowrank", m=16, n=16, r=3, seed=5))
        assert write_container(mixed) == write_container(smooth)

    def test_noise_perturbs_factors(self):
        base = generate(FixtureSpec(kind="smooth_lowrank", m=16, n=16, r=3, seed=5))
        noisy = generate(
            FixtureSpec(kind="mixed", m=16, n=16, r=3, seed=5, noise_level=0.3)
        )
        a0 = base.tensor("layer.0.query.lora_A.weight").as_matrix().array
        a1 = noisy.tensor("layer.0.query.lora_A.weight").as_matrix().array
        diff = a1 - a0
        assert np.abs(diff).max() > 0.0
        # Perturbation is noise_level times a standard normal draw.
        assert np.abs(diff).max() < 0.3 * 6.0

    def test_noise_stream_order_a_then_b(self):
        spec = FixtureSpec(kind="mixed", m=6, n=7, r=2, seed=11, noise_level=0.5)
        file = generate(spec)
        smooth = generate(FixtureSpec(kind="smooth_lowrank", m=6, n=7, r=2, seed=11))
        g = GaussianStream(SplitMix64(11))
        noise_a = g.fill(2, 7)
        noise_b = g.fill(6, 2)
        a = file.tensor("layer.0.query.lora_A.weight").as_matrix().array
        b = file.tensor("layer.0.query.lora_B.weight").as_matrix().array
        a0 = smooth.tensor("layer.0.query.lora_A.weight").as_matrix().array
        b0 = smooth.tensor("layer.0.query.lora_B.weight").as_matrix().array
        np.testing.assert_array_equal(a, a0 + 0.5 * noise_a)
        np.testing.assert_array_equal(b, b0 + 0.5 * noise_b)


class TestDenseGaussian:
    def test_merged_delta_is_raw_stream_tall(self):
        spec = FixtureSpec(kind="dense_gaussian", m=10, n=6, seed=13)
        delta = merge_delta(pair_lora(generate(spec)).pairs[0])
        expected = GaussianStream(SplitMix64(13)).fill(10, 6)
        np.testing.assert_array_equal(delta.array, expected)

    def test_merged_delta_is_raw_stream_wide(self):
        spec = FixtureSpec(kind="dense_gaussian", m=6, n=10, seed=13)
        delta = merge_delta(pair_lora(generate(spec)).pairs[0])
        expected = GaussianStream(SplitMix64(13)).fill(6, 10)
        np.testing.assert_array_equal(delta.array, expected)

    def test_identity_factor_side(self):
        tall = generate(FixtureSpec(kind="dense_gaussian", m=10, n=6, seed=1))
        a = tall.tensor("layer.0.query.lora_A.weight").as_matrix().array
        np.testing.assert_array_equal(a, np.eye(6))
        wide = generate(FixtureSpec(kind="dense_gaussian", m=6, n=10, seed=1))
        b = wide.tensor("layer.0.query.lora_B.weight").as_matrix().array
        np.testing.assert_array_equal(b, np.eye(6))

    def test_k90_near_gaussian_value(self):
        spec = FixtureSpec(kind="dense_gaussian", m=128, n=128, seed=21)
        delta = merge_delta(pair_lora(generate(spec)).pairs[0])
        k90 = dct_k90(delta).k90_percent
        assert 41.0 < k90 < 48.0


class TestStructureOrdering:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smooth_below_mixed_below_dense(self, seed):
        def k90_of(kind, noise=0.0):
            spec = FixtureSpec(kind=kind, m=48, n=48, r=3, seed=seed, noise_level=noise)
            delta = merge_delta(pair_lora(generate(spec)).pairs[0])
            return dct_k90(delta).k90_percent

        smooth = k90_of("smooth_lowrank")
        mixed = k90_of("mixed", noise=0.3)
        dense = k90_of("dense_gaussian")
        assert smooth < mixed < dense


class TestSets:
    def test_generate_set_layers(self):
        specs = [
            FixtureSpec(kind="gaussian_iid", m=8, n=8, r=2, seed=i) for i in range(3)
        ]
        file = generate_set(specs)
        assert len(file.tensors) == 6
        result = pair_lora(file)
        assert [p.layer_index for p in result.pairs] == [0, 1, 2]
        assert not result.orphans

    def test_generate_set_matches_scalar_stream(self):
        # Odd r*n carries a spare from A into B; the 1 x 8193 factor spans
        # two blocks.
        specs = [
            FixtureSpec(kind="gaussian_iid", m=7, n=9, r=3, seed=MASK64),
            FixtureSpec(kind="gaussian_iid", m=3, n=2 * _BLOCK_PAIRS + 1, r=1, seed=2),
            FixtureSpec(kind="smooth_lowrank", m=6, n=5, r=3, seed=3),
            FixtureSpec(kind="mixed", m=9, n=7, r=3, seed=4, noise_level=0.3),
            FixtureSpec(kind="dense_gaussian", m=5, n=7, seed=5),
            FixtureSpec(kind="dense_gaussian", m=7, n=5, seed=6),
        ]
        assert write_container(generate_set(specs)) == write_container(
            scalar_set(specs)
        )

    def test_generate_set_empty(self):
        with pytest.raises(InvalidSpec):
            generate_set([])

    def test_ramp_specs(self):
        specs = ramp_specs("mixed", 32, 32, 5, seed=9, noise_level=0.1)
        assert [s.r for s in specs] == [1, 2, 3, 4, 5]
        assert [s.seed for s in specs] == [9, 10, 11, 12, 13]
        assert all(s.kind == "mixed" for s in specs)
        # As in repeat_specs, the seed wraps modulo 2^64.
        specs = ramp_specs("mixed", 8, 8, 3, seed=2**64 + 5, noise_level=0.1)
        assert [s.seed for s in specs] == [5, 6, 7]

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidSpec, match="count must be positive"):
            ramp_specs("mixed", 8, 8, 0, seed=0)
        with pytest.raises(InvalidSpec, match="count must be positive"):
            repeat_specs(FixtureSpec(kind="mixed", m=8, n=8), 0)

    def test_ramp_too_steep(self):
        with pytest.raises(InvalidSpec):
            ramp_specs("mixed", 8, 32, 9, seed=0)

    def test_repeat_specs(self):
        base = FixtureSpec(kind="dense_gaussian", m=8, n=8, seed=40)
        specs = repeat_specs(base, 3)
        assert [s.seed for s in specs] == [40, 41, 42]
        assert all(s.kind == "dense_gaussian" for s in specs)

    def test_repeat_seed_wraps(self):
        base = FixtureSpec(kind="dense_gaussian", m=8, n=8, seed=MASK64)
        specs = repeat_specs(base, 2)
        assert specs[1].seed == 0

    def test_repeat_specs_keep_every_field(self):
        """Each copy is the spec with only its seed changed, so a subclass
        keeps its type and the fields repeat_specs does not name."""

        @dataclass(frozen=True)
        class TaggedSpec(FixtureSpec):
            tag: str = "untagged"

        base = TaggedSpec(kind="mixed", m=8, n=8, r=2, seed=3, noise_level=0.1,
                          tag="layer")
        specs = repeat_specs(base, 2)
        assert [type(s) for s in specs] == [TaggedSpec, TaggedSpec]
        assert [s.tag for s in specs] == ["layer", "layer"]
        assert [(s.r, s.seed, s.noise_level) for s in specs] == [(2, 3, 0.1), (2, 4, 0.1)]
