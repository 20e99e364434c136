"""Tests for container parsing, writing, and lora pairing."""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorafreq.container import (
    AdapterFile,
    LoraPair,
    TensorRecord,
    merge_delta,
    pair_lora,
    read_container,
    write_container,
)
from lorafreq.errors import (
    ContainerError,
    DuplicateName,
    MalformedHeader,
    OffsetError,
    ShapeMismatch,
    TruncatedFile,
)
from lorafreq.linalg import Matrix


def build_file(header: dict, buffer: bytes) -> bytes:
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob + buffer


class TestReadContainer:
    def test_minimal_f32_file(self):
        raw = build_file(
            {"t": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 16]}},
            struct.pack("<4f", 1.0, 2.0, 3.0, 4.0),
        )
        out = read_container(raw)
        assert out.names() == ["t"]
        t = out.tensor("t")
        assert t.dtype == "F32"
        assert t.shape == (2, 2)
        np.testing.assert_array_equal(t.data, [1.0, 2.0, 3.0, 4.0])

    def test_size_mismatched_offsets(self):
        raw = build_file(
            {"t": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 12]}},
            struct.pack("<4f", 1.0, 2.0, 3.0, 4.0),
        )
        with pytest.raises(OffsetError):
            read_container(raw)

    def test_too_short_for_length_field(self):
        with pytest.raises(TruncatedFile):
            read_container(b"\x01\x02\x03")

    def test_header_longer_than_file(self):
        raw = struct.pack("<Q", 100) + b"{}"
        with pytest.raises(TruncatedFile):
            read_container(raw)

    def test_invalid_json(self):
        blob = b"{not json"
        raw = struct.pack("<Q", len(blob)) + blob
        with pytest.raises(MalformedHeader):
            read_container(raw)

    def test_non_object_header(self):
        blob = b"[1,2]"
        raw = struct.pack("<Q", len(blob)) + blob
        with pytest.raises(MalformedHeader):
            read_container(raw)

    def test_unknown_dtype(self):
        raw = build_file(
            {"t": {"dtype": "BF16", "shape": [1], "data_offsets": [0, 2]}},
            b"\x00\x00",
        )
        with pytest.raises(MalformedHeader):
            read_container(raw)

    def test_negative_shape(self):
        raw = build_file(
            {"t": {"dtype": "F32", "shape": [-1, 4], "data_offsets": [0, 0]}},
            b"",
        )
        with pytest.raises(MalformedHeader):
            read_container(raw)

    def test_out_of_range_offsets(self):
        raw = build_file(
            {"t": {"dtype": "F64", "shape": [2], "data_offsets": [0, 16]}},
            b"\x00" * 8,
        )
        with pytest.raises(OffsetError):
            read_container(raw)

    def test_overlapping_offsets(self):
        buf = struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
        raw = build_file(
            {
                "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
                "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
            },
            buf,
        )
        with pytest.raises(OffsetError):
            read_container(raw)

    def test_reversed_offsets(self):
        raw = build_file(
            {"t": {"dtype": "F32", "shape": [1], "data_offsets": [8, 4]}},
            b"\x00" * 12,
        )
        with pytest.raises(OffsetError):
            read_container(raw)

    def test_duplicate_header_keys(self):
        blob = (
            b'{"t":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
            b'"t":{"dtype":"F32","shape":[1],"data_offsets":[4,8]}}'
        )
        raw = struct.pack("<Q", len(blob)) + blob + b"\x00" * 8
        with pytest.raises(DuplicateName):
            read_container(raw)

    def test_metadata_parsed(self):
        raw = build_file(
            {
                "__metadata__": {"alpha": "32", "r": "8"},
                "t": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            },
            struct.pack("<f", 7.0),
        )
        out = read_container(raw)
        assert out.metadata == {"alpha": "32", "r": "8"}

    def test_non_string_metadata_rejected(self):
        raw = build_file(
            {"__metadata__": {"alpha": 32}},
            b"",
        )
        with pytest.raises(MalformedHeader):
            read_container(raw)

    def test_missing_header_key(self):
        raw = build_file({"t": {"dtype": "F32", "shape": [1]}}, b"\x00" * 4)
        with pytest.raises(MalformedHeader):
            read_container(raw)

    def test_f16_upconverts(self):
        payload = np.array([1.5, -0.25, 65504.0, 2.0**-24], dtype="<f2").tobytes()
        raw = build_file(
            {"t": {"dtype": "F16", "shape": [2, 2], "data_offsets": [0, 8]}},
            payload,
        )
        t = read_container(raw).tensor("t")
        assert t.data.dtype == np.float16
        m = t.as_matrix().array
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, [[1.5, -0.25], [65504.0, 2.0**-24]])

    def test_f64_is_bit_exact(self):
        raw = build_file(
            {"t": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}},
            struct.pack("<d", np.pi),
        )
        assert read_container(raw).tensor("t").data[0] == np.pi

    def test_empty_tensor(self):
        raw = build_file(
            {"t": {"dtype": "F32", "shape": [0, 3], "data_offsets": [0, 0]}},
            b"",
        )
        t = read_container(raw).tensor("t")
        assert t.shape == (0, 3)
        assert t.data.size == 0


class TestWriteContainer:
    def test_empty_file_layout(self):
        raw = write_container(AdapterFile(tensors=()))
        assert raw == struct.pack("<Q", 2) + b"{}"

    def test_single_zero_scalar(self):
        f = AdapterFile(tensors=(TensorRecord("t", "F64", (1, 1), [0.0]),))
        raw = write_container(f)
        assert raw.endswith(b"\x00" * 8)
        want_header = json.dumps(
            {"t": {"dtype": "F64", "shape": [1, 1], "data_offsets": [0, 8]}},
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        assert raw == struct.pack("<Q", len(want_header)) + want_header + b"\x00" * 8

    def test_f32_round_trip_values(self):
        f = AdapterFile(
            tensors=(TensorRecord("t", "F32", (2, 3), [1, 2, 3, 4, 5, 6]),)
        )
        out = read_container(write_container(f))
        np.testing.assert_array_equal(out.tensor("t").data, np.arange(1.0, 7.0))

    def test_matches_hand_assembled_bytes(self):
        rng = np.random.default_rng(70)
        data = {name: rng.standard_normal(4) for name in ("b", "a", "c")}
        f = AdapterFile(
            tensors=tuple(
                TensorRecord(name, "F64", (2, 2), vals)
                for name, vals in data.items()
            )
        )
        got = write_container(f)

        header = {}
        buf = b""
        for i, name in enumerate(sorted(data)):
            header[name] = {
                "dtype": "F64",
                "shape": [2, 2],
                "data_offsets": [32 * i, 32 * (i + 1)],
            }
            buf += data[name].astype("<f8").tobytes()
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        assert got == struct.pack("<Q", len(blob)) + blob + buf

    def test_round_trip_preserves_file(self):
        rng = np.random.default_rng(71)
        f = AdapterFile(
            tensors=tuple(
                TensorRecord(f"t{i}", "F64", (3, 2), rng.standard_normal(6))
                for i in range(3)
            ),
            metadata={"alpha": "32", "r": "8"},
        )
        out = read_container(write_container(f))
        assert out.metadata == f.metadata
        assert sorted(out.tensors, key=lambda t: t.name) == sorted(
            f.tensors, key=lambda t: t.name
        )

    def test_policy_never_widens_narrow_records(self):
        f = AdapterFile(tensors=(TensorRecord("t", "F32", (1,), [2.5]),))
        out = read_container(write_container(f))
        assert out.tensor("t").dtype == "F32"

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateName):
            AdapterFile(
                tensors=(
                    TensorRecord("t", "F64", (1,), [1.0]),
                    TensorRecord("t", "F64", (1,), [2.0]),
                )
            )

    def test_deterministic_bytes(self):
        f = AdapterFile(
            tensors=(TensorRecord("x", "F64", (2,), [1.0, 2.0]),),
            metadata={"k": "v"},
        )
        assert write_container(f) == write_container(f)


@st.composite
def adapter_files(draw):
    n_tensors = draw(st.integers(0, 4))
    names = draw(
        st.lists(
            st.text(alphabet="abcdef._0123456789", min_size=1, max_size=12),
            min_size=n_tensors,
            max_size=n_tensors,
            unique=True,
        )
    )
    tensors = []
    for name in names:
        dtype = draw(st.sampled_from(["F16", "F32", "F64"]))
        shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
        count = int(np.prod(shape)) if shape else 1
        vals = np.asarray(
            draw(
                st.lists(
                    st.floats(-1e3, 1e3, allow_nan=False),
                    min_size=count,
                    max_size=count,
                )
            )
        )
        # Pre-round so the declared dtype represents the data exactly.
        vals = vals.astype({"F16": "<f2", "F32": "<f4", "F64": "<f8"}[dtype])
        tensors.append(TensorRecord(name, dtype, shape, vals.astype(np.float64)))
    meta = draw(
        st.dictionaries(
            st.text(alphabet="abcxyz", min_size=1, max_size=6),
            st.text(max_size=8),
            max_size=3,
        )
    )
    return AdapterFile(tensors=tuple(tensors), metadata=meta)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(adapter_files())
    def test_write_read_identity(self, f):
        out = read_container(write_container(f))
        assert out.metadata == f.metadata
        assert sorted(out.tensors, key=lambda t: t.name) == sorted(
            f.tensors, key=lambda t: t.name
        )

    @settings(max_examples=60, deadline=None)
    @given(adapter_files(), st.data())
    def test_truncation_always_detected(self, f, data):
        raw = write_container(f)
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(ContainerError):
            read_container(raw[:cut])


def lora_file(tensors, metadata=None) -> AdapterFile:
    return AdapterFile(tensors=tuple(tensors), metadata=metadata or {})


class TestPairLora:
    def test_basic_pair(self):
        a = TensorRecord(
            "x.layer.3.query.lora_A.weight", "F64", (8, 768), np.zeros(8 * 768)
        )
        b = TensorRecord(
            "x.layer.3.query.lora_B.weight", "F64", (768, 8), np.zeros(768 * 8)
        )
        res = pair_lora(lora_file([a, b]))
        assert len(res.pairs) == 1
        assert res.orphans == ()
        pair = res.pairs[0]
        assert pair.prefix == "x.layer.3.query"
        assert pair.layer_index == 3
        assert pair.module_kind == "query"
        assert pair.rank == 8
        assert pair.out_shape == (768, 768)
        assert pair.scale == 1.0

    def test_orphan_reported(self):
        a = TensorRecord("m.lora_A.weight", "F64", (2, 4), np.zeros(8))
        res = pair_lora(lora_file([a]))
        assert res.pairs == ()
        assert len(res.orphans) == 1
        assert res.orphans[0].role == "A"
        assert res.orphans[0].tensor_name == "m.lora_A.weight"

    def test_scale_from_metadata(self):
        a = TensorRecord("m.lora_A", "F64", (2, 4), np.zeros(8))
        b = TensorRecord("m.lora_B", "F64", (4, 2), np.zeros(8))
        res = pair_lora(lora_file([a, b], {"alpha": "32", "r": "8"}))
        assert res.pairs[0].scale == 4.0

    def test_scale_defaults_to_one(self):
        a = TensorRecord("m.lora_A", "F64", (2, 4), np.zeros(8))
        b = TensorRecord("m.lora_B", "F64", (4, 2), np.zeros(8))
        assert pair_lora(lora_file([a, b], {"alpha": "32"})).pairs[0].scale == 1.0
        assert pair_lora(lora_file([a, b], {"r": "0"})).pairs[0].scale == 1.0

    @pytest.mark.parametrize(
        "alpha, r",
        [("nan", "2"), ("-4", "8"), ("1e308", "1e-10"), ("32", "0"),
         ("x", "8"), ("inf", "1")],
    )
    def test_bad_scale_metadata_rejected(self, alpha, r):
        a = TensorRecord("m.lora_A", "F64", (2, 4), np.zeros(8))
        b = TensorRecord("m.lora_B", "F64", (4, 2), np.zeros(8))
        with pytest.raises(MalformedHeader) as info:
            pair_lora(lora_file([a, b], {"alpha": alpha, "r": r}))
        assert f"alpha={alpha!r}, r={r!r}:" in str(info.value)

    @pytest.mark.parametrize(
        "alpha, r, factor",
        [("1e300", "1e-8", 1.0), ("1", "1", 1e200), ("1e-200", "1", 1e200)],
        ids=["huge-scale", "huge-factors", "huge-factors-tiny-scale"],
    )
    def test_overflowing_update_rejected(self, alpha, r, factor):
        a = TensorRecord("m.lora_A", "F64", (2, 4), np.full(8, factor))
        b = TensorRecord("m.lora_B", "F64", (4, 2), np.full(8, factor))
        with pytest.raises(ContainerError, match="pair 'm'"):
            pair_lora(lora_file([a, b], {"alpha": alpha, "r": r}))

    def test_overflow_rechecked_on_scale_override(self):
        a = TensorRecord("m.lora_A", "F64", (2, 4), np.full(8, 1e-3))
        b = TensorRecord("m.lora_B", "F64", (4, 2), np.full(8, 1e-3))
        pair = pair_lora(lora_file([a, b])).pairs[0]
        assert dataclasses.replace(pair, scale=1e100).scale == 1e100
        with pytest.raises(ContainerError, match="pair 'm'"):
            dataclasses.replace(pair, scale=1.7e308)

    def test_layers_segment_and_unparseable_names(self):
        a = TensorRecord("enc.layers.11.attn.lora_A.w", "F64", (2, 4), np.zeros(8))
        b = TensorRecord("enc.layers.11.attn.lora_B.w", "F64", (4, 2), np.zeros(8))
        c = TensorRecord("odd.lora_A.w", "F64", (2, 4), np.zeros(8))
        d = TensorRecord("odd.lora_B.w", "F64", (4, 2), np.zeros(8))
        res = pair_lora(lora_file([a, b, c, d]))
        assert res.pairs[0].layer_index == 11
        assert res.pairs[0].module_kind == "other"
        assert res.pairs[1].layer_index is None

    def test_module_kinds(self):
        pairs = []
        for kind in ("query", "value", "key"):
            pairs.append(
                TensorRecord(f"l.0.{kind}.lora_A.w", "F64", (2, 4), np.zeros(8))
            )
            pairs.append(
                TensorRecord(f"l.0.{kind}.lora_B.w", "F64", (4, 2), np.zeros(8))
            )
        res = pair_lora(lora_file(pairs))
        assert [p.module_kind for p in res.pairs] == ["query", "value", "key"]

    def test_pairs_and_orphans_keep_first_seen_order(self):
        def a(name):
            return TensorRecord(name, "F64", (2, 4), np.zeros(8))

        def b(name):
            return TensorRecord(name, "F64", (4, 2), np.zeros(8))

        res = pair_lora(lora_file(
            [b("p2.lora_B"), a("p1.lora_A"), a("p2.lora_A"), b("p1.lora_B")]
        ))
        assert [p.prefix for p in res.pairs] == ["p2", "p1"]
        assert res.orphans == ()
        res = pair_lora(lora_file([
            b("p2.lora_B"), a("o3.lora_A"), a("p1.lora_A"), a("p2.lora_A"),
            b("o0.lora_B"), a("p2.lora_A.again"), b("p1.lora_B"),
        ]))
        assert [p.prefix for p in res.pairs] == ["p2", "p1"]
        assert [o.tensor_name for o in res.orphans] == [
            "p2.lora_A.again", "o3.lora_A", "o0.lora_B"
        ]

    def test_inner_dim_mismatch(self):
        a = TensorRecord("m.lora_A", "F64", (3, 4), np.zeros(12))
        b = TensorRecord("m.lora_B", "F64", (4, 2), np.zeros(8))
        with pytest.raises(ShapeMismatch):
            pair_lora(lora_file([a, b]))

    def test_non_2d_factor(self):
        a = TensorRecord("m.lora_A", "F64", (4,), np.zeros(4))
        b = TensorRecord("m.lora_B", "F64", (4, 2), np.zeros(8))
        with pytest.raises(ShapeMismatch):
            pair_lora(lora_file([a, b]))

    def test_pairing_is_total(self):
        tensors = [
            TensorRecord("p1.lora_A", "F64", (2, 4), np.zeros(8)),
            TensorRecord("p1.lora_B", "F64", (4, 2), np.zeros(8)),
            TensorRecord("p2.lora_A", "F64", (2, 4), np.zeros(8)),
            TensorRecord("bias", "F64", (4,), np.zeros(4)),
            TensorRecord("p3.lora_B", "F64", (4, 2), np.zeros(8)),
        ]
        res = pair_lora(lora_file(tensors))
        lora_names = {t.name for t in tensors if "lora_" in t.name}
        covered = {f"{p.prefix}.lora_A" for p in res.pairs}
        covered |= {f"{p.prefix}.lora_B" for p in res.pairs}
        covered |= {o.tensor_name for o in res.orphans}
        assert covered == lora_names

    def test_duplicate_role_keeps_first(self):
        tensors = [
            TensorRecord("p.lora_A.weight", "F64", (2, 4), np.ones(8)),
            TensorRecord("p.lora_A.extra", "F64", (2, 4), np.zeros(8)),
            TensorRecord("p.lora_B.weight", "F64", (4, 2), np.zeros(8)),
        ]
        res = pair_lora(lora_file(tensors))
        assert len(res.pairs) == 1
        assert res.pairs[0].a_matrix.array[0, 0] == 1.0
        assert [o.tensor_name for o in res.orphans] == ["p.lora_A.extra"]


class TestMergeDelta:
    def make_pair(self, a, b, scale=1.0):
        return LoraPair(
            prefix="p",
            a_matrix=Matrix(a),
            b_matrix=Matrix(b),
            layer_index=None,
            module_kind="other",
            scale=scale,
        )

    def test_unit_vectors(self):
        pair = self.make_pair([[0.0, 1.0]], [[1.0], [0.0]])
        np.testing.assert_array_equal(
            merge_delta(pair).array, [[0.0, 1.0], [0.0, 0.0]]
        )

    def test_rank_one_ones_with_scale(self):
        pair = self.make_pair([[1.0, 1.0]], [[1.0], [1.0]], scale=4.0)
        np.testing.assert_array_equal(merge_delta(pair).array, np.full((2, 2), 4.0))

    def test_known_product(self):
        pair = self.make_pair([[5.0, 6.0], [7.0, 8.0]], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            merge_delta(pair).array, [[19.0, 22.0], [43.0, 50.0]]
        )

    def test_identity_is_neutral(self):
        b = np.random.default_rng(71).standard_normal((5, 3))
        got = merge_delta(self.make_pair(np.eye(3), b)).array
        np.testing.assert_array_equal(got, b)

    @staticmethod
    def triple_loop(b, a):
        m, r = b.shape
        n = a.shape[1]
        want = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for k in range(r):
                    acc += b[i, k] * a[k, j]
                want[i, j] = acc
        return want

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((4, 30))
        b = rng.standard_normal((20, 4))
        got = merge_delta(self.make_pair(a, b)).array
        np.testing.assert_array_equal(got, self.triple_loop(b, a))

    def test_matches_triple_loop_bitwise(self):
        """Bit for bit on 20 random small shapes with r <= min(m, n)."""
        rng = np.random.default_rng(7)
        shapes = []
        while len(shapes) < 20:
            m, r, n = (int(v) for v in rng.integers(1, 9, size=3))
            if r <= min(m, n):
                shapes.append((m, r, n))
        for m, r, n in shapes:
            a = rng.standard_normal((r, n))
            b = rng.standard_normal((m, r))
            got = merge_delta(self.make_pair(a, b)).array
            np.testing.assert_array_equal(got, self.triple_loop(b, a))

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(70)
        pair = self.make_pair(
            rng.standard_normal((11, 13)), rng.standard_normal((17, 11)), scale=0.7
        )
        assert merge_delta(pair).array.tobytes() == merge_delta(pair).array.tobytes()

    def test_holds_the_update_and_one_term(self, peak_alloc):
        rng = np.random.default_rng(69)
        pair = self.make_pair(
            rng.standard_normal((8, 512)), rng.standard_normal((512, 8)), scale=2.0
        )
        _, peak = peak_alloc(merge_delta, pair)
        assert peak <= 2.1 * 8 * 512 * 512

    def test_scaled_merge_at_rank_eight(self):
        rng = np.random.default_rng(73)
        a = rng.standard_normal((8, 768))
        b = rng.standard_normal((768, 8))
        got = merge_delta(self.make_pair(a, b, scale=4.0)).array
        want = 4.0 * np.einsum("ik,kj->ij", b, a)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 1e-12

    def test_linear_in_scale(self):
        rng = np.random.default_rng(74)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((4, 3))
        one = merge_delta(self.make_pair(a, b, scale=1.25)).array
        two = merge_delta(self.make_pair(a, b, scale=2.5)).array
        np.testing.assert_array_equal(two, 2.0 * one)

    def test_rank_exceeding_dims_rejected(self):
        with pytest.raises(ShapeMismatch):
            self.make_pair(np.zeros((5, 3)), np.zeros((4, 5)))


class TestCopies:
    """Each array crosses between file bytes and records with one copy."""

    def three_tensors(self, n=512) -> AdapterFile:
        rng = np.random.default_rng(75)
        return AdapterFile(
            tensors=(
                TensorRecord("a", "F64", (n, n), rng.standard_normal(n * n)),
                TensorRecord("b", "F64", (n, n), rng.standard_normal(n * n)),
                TensorRecord("c", "F32", (n, n), rng.standard_normal(n * n)),
            )
        )

    def test_write_allocates_little_beyond_the_file(self, peak_alloc):
        raw, peak = peak_alloc(write_container, self.three_tensors())
        assert peak <= 1.3 * len(raw)

    def test_read_allocates_little_beyond_the_records(self, peak_alloc):
        raw = write_container(self.three_tensors())
        out, peak = peak_alloc(read_container, raw)
        assert peak <= 1.1 * sum(t.data.nbytes for t in out.tensors)

    def test_read_of_bytes_copies_no_payload(self, peak_alloc):
        raw = write_container(self.three_tensors())
        out, peak = peak_alloc(read_container, raw)
        payload = (8 + 8 + 4) * 512 * 512  # two F64 tensors and one F32
        assert peak <= 0.05 * payload
        whole = np.frombuffer(raw, dtype=np.uint8)
        for t in out.tensors:
            assert np.shares_memory(t.data, whole) and not t.data.flags.writeable

    def test_records_do_not_alias_a_bytearray(self):
        raw = write_container(self.three_tensors(n=4))
        buf = bytearray(raw)
        out = read_container(buf)
        buf[8:] = bytes(len(buf) - 8)
        assert out.tensors == read_container(raw).tensors

    @pytest.mark.parametrize("shape", [(6,), (2, 3)])
    def test_record_does_not_alias_its_source(self, shape):
        src = np.arange(6.0).reshape(shape)
        t = TensorRecord("t", "F64", (2, 3), src)
        src[...] = -1.0
        np.testing.assert_array_equal(t.data, np.arange(6.0))
        assert t.data.ndim == 1 and not t.data.flags.writeable
