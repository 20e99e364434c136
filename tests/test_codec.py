"""Tests for sparse spectral encoding and storage accounting."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorafreq.analysis import energy_curve, reconstruct, topk_mask
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
    pair_lora,
    read_container,
    write_container,
)
from lorafreq.dct import Spectrum, dct2, dct2_factored
from lorafreq.errors import (
    ContainerError,
    CorruptSparse,
    DuplicateName,
    InvalidSpec,
    LorafreqError,
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
    bytes; dtype re-tags that tensor, so F64 can carry values F32 cannot.
    The data is widened first, as records hold it in their tag's dtype."""
    tensors = []
    for t in f.tensors:
        if t.name.endswith(suffix):
            data = t.data.astype(np.float64)
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


class TestSparseSpectrum:
    """Every instance holds the invariants decode_sparse and the dense
    writer rely on, however it was built."""

    @pytest.mark.parametrize(
        "indices, values, shape, match",
        [
            ([2, 0], [1.0, 2.0], (2, 2), "strictly increasing"),
            ([1, 1], [1.0, 2.0], (2, 2), "strictly increasing"),
            ([4], [1.0], (2, 2), "out of range"),
            ([-1, 0], [1.0, 2.0], (2, 2), "out of range"),
            ([0], [1.0], (0, 2), "bad shape"),
            ([2**32], [1.0], (2**32, 2), "32-bit range"),
        ],
        ids=["unsorted", "repeated", "past-the-end", "negative", "bad-shape",
             "beyond-u32"],
    )
    def test_construction_rejects_a_broken_spectrum(self, indices, values, shape, match):
        with pytest.raises(CorruptSparse, match=match):
            sparse(indices, values, shape=shape)

    def test_arrays_are_read_only(self):
        s = sparse([0, 3], [1.0, 2.0])
        assert not s.flat_indices.flags.writeable
        assert not s.values.flags.writeable


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

    def test_allocates_about_two_spectra(self, peak_alloc):
        rng = np.random.default_rng(103)
        f = Spectrum(Matrix(rng.standard_normal((512, 512))))
        s = encode_sparse("s", f, topk_mask(f, 10.0))
        _, peak = peak_alloc(decode_sparse, s)
        assert peak <= 2.25 * 8 * 512 * 512


class TestPackUnpack:
    def make_spectra(self, count, k=20.0, seed=102):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(count):
            f = dct2(Matrix(rng.standard_normal((6, 5))))
            out.append(encode_sparse(f"layer.{i}.query", f, topk_mask(f, k)))
        return out

    def test_pack_copies_each_half_once(self, peak_alloc):
        count = 26_214
        s = sparse(np.arange(count) * 10, np.ones(count), shape=(512, 512), k=10.0)
        _, peak = peak_alloc(pack_sparse_file, [s])
        assert peak <= 2.1 * 8 * count

    def test_unpacked_spectra_hold_no_view_of_the_file(self, peak_alloc):
        """Each spectrum owns one copy of each half, made straight from the
        file's dtypes, so the file's bytes can be freed."""
        count = 26_214
        s = sparse(np.arange(count) * 10, np.ones(count), shape=(512, 512), k=10.0)
        raw = write_container(pack_sparse_file([s]))
        (back,), peak = peak_alloc(lambda r: unpack_sparse_file(read_container(r)), raw)
        assert back == s
        whole = np.frombuffer(raw, dtype=np.uint8)
        assert not np.shares_memory(back.flat_indices, whole)
        assert not np.shares_memory(back.values, whole)
        assert peak <= 1.25 * len(raw)

    def test_unpacked_spectra_are_read_only(self):
        raw = write_container(pack_sparse_file(self.make_spectra(3)))
        for s in unpack_sparse_file(read_container(raw)):
            assert not s.flat_indices.flags.writeable
            assert not s.values.flags.writeable

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

    def test_missing_transform(self):
        f = pack_sparse_file(self.make_spectra(1))
        meta = dict(f.metadata)
        del meta["transform"]
        with pytest.raises(NotSpectralFile, match="transform"):
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



def mutate(raw: bytes, edits) -> bytes:
    """raw with each (position, width, replacement) splice applied in turn."""
    for pos, width, new in edits:
        raw = raw[:pos] + new + raw[pos + width :]
    return raw


def data_start(raw: bytes, name: str) -> int:
    """File offset of the first byte of tensor name's data."""
    (header_len,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + header_len])
    return 8 + header_len + header[name]["data_offsets"][0]


def lora_container() -> bytes:
    rng = np.random.default_rng(104)
    tensors = []
    for layer, (dtype, np_dtype) in enumerate(
        (("F16", "<f2"), ("F32", "<f4"), ("F64", "<f8"))
    ):
        prefix = f"layers.{layer}.query"
        a = rng.standard_normal(2 * 6).astype(np_dtype)
        b = rng.standard_normal(5 * 2).astype(np_dtype)
        tensors += [
            TensorRecord(f"{prefix}.lora_A.weight", dtype, (2, 6), a),
            TensorRecord(f"{prefix}.lora_B.weight", dtype, (5, 2), b),
        ]
    return write_container(AdapterFile(tuple(tensors), {"alpha": "4", "r": "2"}))


def sparse_container() -> bytes:
    rng = np.random.default_rng(105)
    spectra = []
    for i in range(2):
        f = dct2(Matrix(rng.standard_normal((8, 8))))
        spectra.append(encode_sparse(f"layers.{i}.query", f, topk_mask(f, 20.0)))
    return write_container(pack_sparse_file(spectra))


LORA_RAW = lora_container()
SPARSE_RAW = sparse_container()
SIGNALLING_NAN_F32 = struct.pack("<I", 0x7F800001)
OVERFLOWING_SHAPE = b"[4294967296,4294967296,4294967296]"
DEEP_HEADER = struct.pack("<Q", 100_000) + b"[" * 100_000
LONG_INT_HEADER = struct.pack("<Q", 5_002) + b"[" + b"1" * 5_000 + b"]"
HEADER_CHARS = '0123456789-+.eE,:[]{}" _ABFSdfhlnrsty'
# File offsets of the F32 tensors whose first value the examples overwrite.
F32_FACTOR_AT = data_start(LORA_RAW, "layers.1.query.lora_A.weight")
F32_VALUES_AT = data_start(SPARSE_RAW, "layers.0.query.spectral_values")


def overwrites(raw: bytes):
    """Overwrite one byte of raw with any byte or a JSON-ish character."""
    return st.tuples(
        st.integers(0, len(raw) - 1),
        st.just(1),
        st.one_of(
            st.binary(min_size=1, max_size=1),
            st.sampled_from(HEADER_CHARS).map(str.encode),
        ),
    )


def header_splices(raw: bytes):
    """Replace up to 3 header characters with up to 4 JSON-ish ones."""
    header_end = 8 + struct.unpack("<Q", raw[:8])[0]
    return st.tuples(
        st.integers(8, header_end),
        st.integers(0, 3),
        st.text(HEADER_CHARS, max_size=4).map(str.encode),
    )


class TestMutatedFiles:
    """Mutated files raise only LorafreqError subclasses, nothing else."""

    # Splices are safe here: every factor a mutant declares is read from the
    # file, so neither side of a spectrum exceeds the file's length.
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(overwrites(LORA_RAW), header_splices(LORA_RAW)),
            min_size=1,
            max_size=4,
        )
    )
    @example([(0, 8, b"\xff" * 8)])
    @example([(LORA_RAW.index(b"[5,2]"), 5, OVERFLOWING_SHAPE)])
    @example([(F32_FACTOR_AT, 4, SIGNALLING_NAN_F32)])
    @example([(0, len(LORA_RAW), DEEP_HEADER)])
    @example([(0, len(LORA_RAW), LONG_INT_HEADER)])
    def test_lora_container(self, edits):
        try:
            pairs = pair_lora(read_container(mutate(LORA_RAW, edits))).pairs
            for pair in pairs:
                spectrum = dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale)
                energy_curve(spectrum)
                topk_mask(spectrum, 10.0)
        except LorafreqError:
            pass

    # Only overwrites: each adds at most one digit to the shape metadata, so
    # no mutant makes decode_sparse allocate much.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(overwrites(SPARSE_RAW), min_size=1, max_size=4))
    @example([(0, 8, b"\xff" * 8)])
    @example([(SPARSE_RAW.index(b"[1,13]"), 6, OVERFLOWING_SHAPE)])
    @example([(SPARSE_RAW.index(b'"8,8"'), 5, b'"4294967296,4294967296"')])
    @example([(F32_VALUES_AT, 4, SIGNALLING_NAN_F32)])
    def test_sparse_file(self, edits):
        try:
            for s in unpack_sparse_file(read_container(mutate(SPARSE_RAW, edits))):
                decode_sparse(s)
        except LorafreqError:
            pass


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
