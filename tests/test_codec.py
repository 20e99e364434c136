"""Tests for sparse spectral encoding and storage accounting."""

from __future__ import annotations

import numpy as np
import pytest

from lorafreq.analysis import reconstruct, topk_mask
from lorafreq.codec import (
    SparseSpectrum,
    decode_sparse,
    encode_sparse,
    pack_sparse_file,
    storage_report,
    unpack_sparse_file,
)
from lorafreq.container import (
    AdapterFile,
    TensorRecord,
    read_container,
    write_container,
)
from lorafreq.dct import dct2
from lorafreq.errors import (
    ContainerError,
    CorruptSparse,
    DuplicateName,
    InvalidSpec,
    NotSpectralFile,
)
from lorafreq.linalg import Matrix


def sparse(indices, values, shape=(2, 2), k=50.0, name="s") -> SparseSpectrum:
    return SparseSpectrum(
        name=name,
        shape=shape,
        flat_indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=np.float32),
        k_percent=k,
    )


def tampered(f: AdapterFile, suffix: str, pos: int, value: float, dtype=None):
    """f with entry pos of its `suffix` tensor set to value, read back from
    bytes; dtype re-tags that tensor, so F64 can carry values F32 cannot."""
    tensors = []
    for t in f.tensors:
        if t.name.endswith(suffix):
            data = t.data.copy()
            data[pos] = value
            t = TensorRecord(t.name, dtype or t.dtype, t.shape, data)
        tensors.append(t)
    raw = write_container(AdapterFile(tensors=tuple(tensors), metadata=f.metadata))
    return read_container(raw)


class TestEncodeSparse:
    def test_full_mask_two_by_two(self):
        f = dct2(Matrix([[1.0, 2.0], [3.0, 4.0]]))
        s = encode_sparse("t", f, topk_mask(f, 100.0))
        np.testing.assert_array_equal(s.flat_indices, [0, 1, 2, 3])
        assert s.values.dtype == np.float32
        assert s.shape == (2, 2)

    def test_constant_matrix_single_entry(self):
        f = dct2(Matrix(np.full((4, 4), 2.0)))
        s = encode_sparse("t", f, topk_mask(f, 1e-9))
        np.testing.assert_array_equal(s.flat_indices, [0])
        assert s.values[0] == np.float32(8.0)

    def test_encode_decode_matches_reconstruct(self):
        rng = np.random.default_rng(100)
        x = Matrix(rng.standard_normal((64, 64)))
        f = dct2(x)
        mask = topk_mask(f, 20.0)
        dense = reconstruct(f, mask)
        via_codec = decode_sparse(encode_sparse("t", f, mask))
        err = np.linalg.norm(via_codec.array - dense.array)
        err /= np.linalg.norm(dense.array)
        assert err <= 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(101)
        f = dct2(Matrix(rng.standard_normal((8, 8))))
        mask = topk_mask(f, 25.0)
        assert encode_sparse("t", f, mask) == encode_sparse("t", f, mask)

    def test_value_beyond_binary32_raises(self):
        # DC coefficient 4e39: finite in binary64, inf once cast to binary32.
        f = dct2(Matrix(np.full((4, 4), 1e39)))
        with pytest.raises(ContainerError, match="^big: .*binary32"):
            encode_sparse("big", f, topk_mask(f, 10.0))


class TestDecodeSparse:
    def test_single_dc_entry(self):
        out = decode_sparse(sparse([0], [4.0], shape=(4, 4)))
        np.testing.assert_allclose(out.array, np.ones((4, 4)), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(CorruptSparse):
            decode_sparse(sparse([], []))

    def test_duplicate_index_rejected(self):
        with pytest.raises(CorruptSparse):
            decode_sparse(sparse([1, 1], [1.0, 2.0]))

    def test_unsorted_rejected(self):
        with pytest.raises(CorruptSparse):
            decode_sparse(sparse([2, 0], [1.0, 2.0]))

    def test_out_of_range_rejected(self):
        with pytest.raises(CorruptSparse):
            decode_sparse(sparse([4], [1.0], shape=(2, 2)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(CorruptSparse):
            decode_sparse(sparse([0, 1], [1.0]))


class TestPackUnpack:
    def make_spectra(self, count, k=20.0, seed=102):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(count):
            f = dct2(Matrix(rng.standard_normal((6, 5))))
            out.append(encode_sparse(f"layer.{i}.query", f, topk_mask(f, k)))
        return out

    def test_structure_single_spectrum(self):
        s = sparse([0, 2, 3], [1.0, 2.0, 3.0], shape=(2, 2), name="t")
        f = pack_sparse_file([s])
        assert f.names() == ["t.spectral_indices", "t.spectral_values"]
        idx = f.tensor("t.spectral_indices")
        val = f.tensor("t.spectral_values")
        assert idx.dtype == "F64" and idx.shape == (1, 3)
        assert val.dtype == "F32" and val.shape == (1, 3)
        assert f.metadata["format"] == "spectral-sparse-v1"
        assert f.metadata["transform"] == "dct2-ortho-v1"
        assert float(f.metadata["k_percent"]) == 50.0
        assert f.metadata["shape.t"] == "2,2"

    def test_round_trip_identity(self):
        spectra = self.make_spectra(24)
        assert unpack_sparse_file(pack_sparse_file(spectra)) == spectra

    def test_round_trip_through_bytes(self):
        spectra = self.make_spectra(5)
        raw = write_container(pack_sparse_file(spectra))
        back = unpack_sparse_file(read_container(raw))
        assert sorted(back, key=lambda s: s.name) == sorted(
            spectra, key=lambda s: s.name
        )

    def test_on_disk_dtypes(self):
        raw = write_container(pack_sparse_file(self.make_spectra(1)))
        f = read_container(raw)
        assert f.tensor("layer.0.query.spectral_indices").dtype == "F64"
        assert f.tensor("layer.0.query.spectral_values").dtype == "F32"

    def test_missing_format_key(self):
        plain = AdapterFile(tensors=(), metadata={})
        with pytest.raises(NotSpectralFile):
            unpack_sparse_file(plain)

    def test_wrong_format_value(self):
        f = AdapterFile(tensors=(), metadata={"format": "something-else"})
        with pytest.raises(NotSpectralFile):
            unpack_sparse_file(f)

    def test_wrong_transform(self):
        f = pack_sparse_file(self.make_spectra(1))
        meta = dict(f.metadata)
        meta["transform"] = "dft-v9"
        with pytest.raises(NotSpectralFile):
            unpack_sparse_file(AdapterFile(tensors=f.tensors, metadata=meta))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-5", "1e9"])
    def test_k_percent_outside_domain(self, bad):
        f = pack_sparse_file(self.make_spectra(1))
        meta = dict(f.metadata)
        meta["k_percent"] = bad
        with pytest.raises(CorruptSparse):
            unpack_sparse_file(AdapterFile(tensors=f.tensors, metadata=meta))

    def test_duplicate_names_rejected(self):
        s = self.make_spectra(1)[0]
        with pytest.raises(DuplicateName):
            pack_sparse_file([s, s])

    def test_mixed_k_rejected(self):
        a = self.make_spectra(1, k=10.0)[0]
        b = self.make_spectra(1, k=20.0, seed=103)[0]
        b = SparseSpectrum(
            name="other",
            shape=b.shape,
            flat_indices=b.flat_indices,
            values=b.values,
            k_percent=b.k_percent,
        )
        with pytest.raises(InvalidSpec):
            pack_sparse_file([a, b])

    def test_missing_half_rejected(self):
        f = pack_sparse_file(self.make_spectra(1))
        trimmed = AdapterFile(tensors=f.tensors[:1], metadata=f.metadata)
        with pytest.raises(CorruptSparse):
            unpack_sparse_file(trimmed)

    def test_stray_tensor_rejected(self):
        f = pack_sparse_file(self.make_spectra(1))
        extra = TensorRecord("weird", "F64", (1,), [1.0])
        with pytest.raises(CorruptSparse):
            unpack_sparse_file(
                AdapterFile(tensors=f.tensors + (extra,), metadata=f.metadata)
            )

    def test_tampered_indices_rejected(self):
        f = pack_sparse_file(self.make_spectra(1))
        first = float(f.tensor("layer.0.query.spectral_indices").data[0])
        with pytest.raises(CorruptSparse):  # duplicate index
            unpack_sparse_file(tampered(f, ".spectral_indices", 1, first))

    def test_non_integer_indices_rejected(self):
        f = pack_sparse_file(self.make_spectra(1))
        with pytest.raises(CorruptSparse):
            unpack_sparse_file(tampered(f, ".spectral_indices", 0, 0.5))

    @pytest.mark.parametrize(
        "suffix, value, dtype",
        [
            # Either index wraps to INT64_MIN in an int64 cast, and the
            # strictly-increasing check's np.diff then overflows and passes.
            (".spectral_indices", 1e20, None),
            (".spectral_indices", float("inf"), None),
            (".spectral_values", float("nan"), None),
            (".spectral_values", float("inf"), None),
            # Beyond binary32 range, so it would overflow the float32 cast.
            (".spectral_values", 1e300, "F64"),
        ],
        ids=["index-1e20", "index-inf", "value-nan", "value-inf", "value-1e300"],
    )
    def test_hostile_entries_rejected(self, suffix, value, dtype):
        f = pack_sparse_file(self.make_spectra(1))
        with pytest.raises(CorruptSparse):
            unpack_sparse_file(tampered(f, suffix, -1, value, dtype))

    def test_missing_shape_metadata(self):
        f = pack_sparse_file(self.make_spectra(1))
        meta = {k: v for k, v in f.metadata.items() if not k.startswith("shape.")}
        with pytest.raises(CorruptSparse):
            unpack_sparse_file(AdapterFile(tensors=f.tensors, metadata=meta))

    @pytest.mark.parametrize(
        "shape, ok",
        [("1048576,1048576", False), ("65536,65537", False), ("65536,65536", True)],
    )
    def test_shape_limited_to_u32_index_range(self, shape, ok):
        f = pack_sparse_file(self.make_spectra(1))
        meta = {**f.metadata, "shape.layer.0.query": shape}
        file = AdapterFile(tensors=f.tensors, metadata=meta)
        if ok:
            assert unpack_sparse_file(file)[0].shape == (65536, 65536)
        else:
            with pytest.raises(CorruptSparse, match="2\\^32"):
                unpack_sparse_file(file)


class TestStorageReport:
    def test_nominal_reference_values_exact(self):
        want = {50.0: 148225, 20.0: 59290, 10.0: 29645, 5.0: 14823}
        reductions = {50.0: 2.0, 20.0: 5.0, 10.0: 10.0, 5.0: 20.0}
        for k, stored in want.items():
            rep = storage_report(296450, k, [1])
            assert rep.nominal_stored == stored
            assert round(rep.nominal_reduction, 1) == reductions[k]

    def test_half_up_rounding(self):
        # 296450 * 5 / 100 = 14822.5; banker's rounding would give 14822
        assert storage_report(296450, 5.0, [1]).nominal_stored == 14823

    def test_coefficient_accounting_flags_overrun(self):
        rep = storage_report(296450, 10.0, [58983] * 24)
        assert rep.coeff_value_count == 1_415_592
        assert rep.coeff_total_units == 2_831_184
        assert rep.exceeds_base
        assert rep.coeff_reduction == 296450 / 2_831_184

    def test_small_masks_do_not_flag(self):
        rep = storage_report(296450, 1.0, [100, 100])
        assert rep.coeff_total_units == 400
        assert not rep.exceeds_base
        assert rep.coeff_reduction > 1.0

    def test_nominal_reduction_tracks_inverse_k(self):
        for k in (5.0, 10.0, 20.0, 50.0, 100.0):
            rep = storage_report(1_000_000, k, [1])
            assert rep.nominal_reduction == pytest.approx(100.0 / k, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            storage_report(0, 10.0, [1])
        with pytest.raises(ValueError):
            storage_report(100, 0.0, [1])
        with pytest.raises(ValueError):
            storage_report(100, 10.0, [])
        with pytest.raises(ValueError):
            storage_report(100, 10.0, [0])
