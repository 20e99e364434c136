"""CLI exit codes, file products, schema conformance, determinism."""

import csv
import json
import math
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import lorafreq
import lorafreq.analysis
import lorafreq.container
import lorafreq.dct
from lorafreq import codec, errors, report
from lorafreq.analysis import (
    _factored_selection,
    energy_curve,
    k_for_energy,
    reconstruct,
    topk_mask,
)
from lorafreq.cli import _NoPairsError, _csv_text, _write_chunks, main
from lorafreq.container import (
    AdapterFile,
    TensorRecord,
    merge_delta,
    pair_lora,
    read_container,
    write_container,
)
from lorafreq.dct import dct2_factored
from lorafreq.errors import CorruptSparse
from lorafreq.fixtures import FixtureSpec, generate, generate_set

ANALYSIS_SCHEMA = json.loads(
    resources.files("lorafreq").joinpath("schemas/analysis_report.schema.json").read_text()
)
CORRELATE_SCHEMA = json.loads(
    resources.files("lorafreq").joinpath("schemas/correlate_report.schema.json").read_text()
)


def synth(tmp_path, name="a.st", **flags):
    defaults = {"kind": "mixed", "m": 24, "n": 24, "r": 3, "seed": 5,
                "noise-level": 0.1, "count": 4}
    defaults.update(flags)
    out = tmp_path / name
    argv = ["synth", "--out", str(out)]
    for key, value in defaults.items():
        if key == "rank-ramp":
            if value:
                argv.append("--rank-ramp")
            continue
        argv += [f"--{key}", str(value)]
    assert main(argv) == 0
    return out


class TestSynth:
    def test_count_emits_layers(self, tmp_path):
        path = synth(tmp_path, kind="smooth_lowrank", count=24, **{"noise-level": 0})
        result = pair_lora(read_container(path.read_bytes()))
        assert len(result.pairs) == 24
        # Header keys are stored sorted, so read order is lexicographic;
        # the index set is what matters.
        assert {p.layer_index for p in result.pairs} == set(range(24))

    def test_byte_identical_reruns(self, tmp_path):
        a = synth(tmp_path, "a.st")
        b = synth(tmp_path, "b.st")
        assert a.read_bytes() == b.read_bytes()

    def test_rank_ramp(self, tmp_path):
        path = synth(tmp_path, count=6, **{"rank-ramp": True})
        result = pair_lora(read_container(path.read_bytes()))
        assert [p.rank for p in result.pairs] == [1, 2, 3, 4, 5, 6]

    def test_invalid_spec_exits_1(self, tmp_path):
        code = main([
            "synth", "--kind", "gaussian_iid", "--m", "4", "--n", "4",
            "--r", "9", "--out", str(tmp_path / "x.st"),
        ])
        assert code == 1

    def test_unknown_kind_exits_1(self, tmp_path):
        code = main([
            "synth", "--kind", "perlin", "--m", "4", "--n", "4",
            "--out", str(tmp_path / "x.st"),
        ])
        assert code == 1


class TestAnalyze:
    def test_report_schema_and_curves(self, tmp_path):
        src = synth(tmp_path, count=3)
        out = tmp_path / "rep"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        jsonschema.validate(doc, ANALYSIS_SCHEMA)
        assert doc["aggregate"]["matrix_count"] == 3
        assert len(doc["per_matrix"]) == 3
        curve_files = sorted(out.glob("matrix_*.curve.csv"))
        assert len(curve_files) == 3
        header = curve_files[0].read_text().splitlines()[0]
        assert header == "coefficient_rank_percent,cumulative_fraction"
        combined = (out / "curves_combined.csv").read_text().splitlines()
        assert combined[0] == "matrix_prefix,coefficient_rank_percent,cumulative_fraction"
        # combined stacks exactly the per-matrix rows
        per_rows = sum(len(f.read_text().splitlines()) - 1 for f in curve_files)
        assert len(combined) - 1 == per_rows

    def test_combined_rows_quote_prefixes_as_csv_does(self, tmp_path):
        prefixes = ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "", "plain"]
        rng = np.random.default_rng(7)
        tensors = []
        for prefix in prefixes:
            lead = f"{prefix}." if prefix else ""
            tensors += [
                TensorRecord(f"{lead}lora_A.weight", "F64", (2, 5),
                             rng.standard_normal((2, 5))),
                TensorRecord(f"{lead}lora_B.weight", "F64", (3, 2),
                             rng.standard_normal((3, 2))),
            ]
        src = tmp_path / "q.st"
        src.write_bytes(write_container(AdapterFile(tensors=tuple(tensors), metadata={})))
        out = tmp_path / "rep"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        rows = []
        for i, row in enumerate(doc["per_matrix"]):
            (curve,) = out.glob(f"matrix_{i:03d}_*.curve.csv")
            with open(curve, newline="") as fh:
                points = list(csv.reader(fh))[1:]
            rows += [(row["prefix"], float(p), float(f)) for p, f in points]
        assert sorted({prefix for prefix, _, _ in rows}) == sorted(prefixes)
        want = _csv_text(
            ("matrix_prefix", "coefficient_rank_percent", "cumulative_fraction"), rows
        )
        assert (out / "curves_combined.csv").read_bytes() == want.encode()

    def test_smooth_fixture_mean_below_one_percent(self, tmp_path):
        src = synth(tmp_path, kind="smooth_lowrank", m=64, n=64, r=2,
                    count=4, **{"noise-level": 0})
        out = tmp_path / "rep"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["aggregate"]["mean_k90"] < 1.0
        assert doc["heatmap"]["module_kinds"] == ["query"]

    def test_zero_update_sets_flag(self, tmp_path):
        zero = np.zeros((2, 6))
        file = AdapterFile(
            tensors=(
                TensorRecord("z.lora_A.weight", "F64", (2, 6), zero),
                TensorRecord("z.lora_B.weight", "F64", (4, 2), np.zeros((4, 2))),
            ),
            metadata={},
        )
        src = tmp_path / "z.st"
        src.write_bytes(write_container(file))
        out = tmp_path / "rep"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        jsonschema.validate(doc, ANALYSIS_SCHEMA)
        row = doc["per_matrix"][0]
        assert row["zero_flag"] is True
        assert row["k90_percent"] is None
        assert doc["aggregate"]["mean_k90"] is None

    def test_no_pairs_exits_3(self, tmp_path):
        file = AdapterFile(
            tensors=(TensorRecord("w", "F64", (2, 2), np.ones((2, 2))),),
            metadata={},
        )
        src = tmp_path / "plain.st"
        src.write_bytes(write_container(file))
        assert main(["analyze", str(src), "--out", str(tmp_path / "rep")]) == 3

    def test_parse_error_exits_2(self, tmp_path):
        src = tmp_path / "junk.st"
        src.write_bytes(b"\x10\x00\x00\x00\x00\x00\x00\x00not json at all!")
        assert main(["analyze", str(src), "--out", str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"__metadata__": []}, "__metadata__ must be an object"),
            ({"w": []}, "header entry must be an object"),
            ({"w": {"dtype": "F64", "shape": [1.5], "data_offsets": [0, 8]}},
             "shape must be a list of integers"),
            ({"w": {"dtype": "F64", "shape": [True], "data_offsets": [0, 8]}},
             "shape must be a list of integers"),
            ({"w": {"dtype": "F64", "shape": [1], "data_offsets": [0]}},
             "data_offsets must be [start, end] integers"),
        ],
        ids=["metadata-list", "entry-list", "shape-float", "shape-bool", "one-offset"],
    )
    def test_malformed_header_exits_2(self, tmp_path, capsys, header, message):
        text = json.dumps(header).encode()
        src = tmp_path / "bad.st"
        src.write_bytes(struct.pack("<Q", len(text)) + text + bytes(8))
        capsys.readouterr()
        assert main(["analyze", str(src), "--out", str(tmp_path / "rep")]) == 2
        assert message in capsys.readouterr().err

    def test_unpaired_factor_warned_once(self, tmp_path, capsys):
        file = generate(FixtureSpec(kind="mixed", m=8, n=8, r=2, noise_level=0.1))
        lone = TensorRecord("layer.1.query.lora_A.weight", "F64", (2, 8), np.ones((2, 8)))
        src = tmp_path / "lone.st"
        src.write_bytes(write_container(AdapterFile(file.tensors + (lone,), {})))
        capsys.readouterr()
        assert main(["analyze", str(src), "--out", str(tmp_path / "rep")]) == 0
        err = capsys.readouterr().err.splitlines()
        warnings = [line for line in err if line.startswith("warning:")]
        assert warnings == ["warning: unpaired factor layer.1.query.lora_A.weight"]

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["analyze", str(tmp_path / "nope.st"), "--out", str(tmp_path / "rep")])
        assert code == 1

    def test_scale_flag_reported_but_k90_invariant(self, tmp_path):
        src = synth(tmp_path, count=2)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["analyze", str(src), "--out", str(out1)]) == 0
        assert main(["analyze", str(src), "--out", str(out2), "--scale", "4.0"]) == 0
        d1 = json.loads((out1 / "report.json").read_text())
        d2 = json.loads((out2 / "report.json").read_text())
        assert d1["scale_applied"] == 1.0
        assert d2["scale_applied"] == 4.0
        k1 = [r["k90_percent"] for r in d1["per_matrix"]]
        k2 = [r["k90_percent"] for r in d2["per_matrix"]]
        assert k1 == k2

    def test_energy_target_sets_each_count(self, tmp_path):
        src = synth(tmp_path, count=3)
        out = tmp_path / "rep"
        argv = ["analyze", str(src), "--out", str(out), "--energy-target", "0.5"]
        assert main(argv) == 0
        rows = json.loads((out / "report.json").read_text())["per_matrix"]
        pairs = pair_lora(read_container(src.read_bytes())).pairs
        assert len(rows) == len(pairs) == 3
        for row, pair in zip(rows, pairs):
            curve = energy_curve(dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale))
            want = k_for_energy(curve, 0.5).coeff_count_90
            assert row["coeff_count_90"] == want
            assert want < k_for_energy(curve, 0.9).coeff_count_90

    def test_default_energy_target_is_0_9(self, tmp_path):
        src = synth(tmp_path, count=3)
        outputs = []
        for tag, extra in (("default", []), ("target", ["--energy-target", "0.9"])):
            out = tmp_path / tag
            assert main(["analyze", str(src), "--out", str(out), *extra]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]



class TestMask:
    def test_full_k_dense_is_identity(self, tmp_path):
        src = synth(tmp_path, count=2)
        out = tmp_path / "dense.st"
        assert main(["mask", str(src), "--k", "100", "--emit", "dense",
                     "--out", str(out)]) == 0
        dense = read_container(out.read_bytes())
        pairs = pair_lora(read_container(src.read_bytes())).pairs
        for pair in pairs:
            delta = merge_delta(pair).array
            got = dense.tensor(f"{pair.prefix}.delta_w").as_matrix().array
            rel = np.linalg.norm(got - delta) / np.linalg.norm(delta)
            assert rel < 1e-10

    def test_sparse_coefficient_count(self, tmp_path):
        src = synth(tmp_path, m=30, n=20, count=2)
        out = tmp_path / "s.st"
        assert main(["mask", str(src), "--k", "10", "--out", str(out)]) == 0
        packed = read_container(out.read_bytes())
        expected = math.ceil(0.1 * 30 * 20)
        for name in packed.names():
            if name.endswith(".spectral_values"):
                assert packed.tensor(name).shape == (1, expected)

    def test_nominal_accounting_printed(self, tmp_path, capsys):
        src = synth(tmp_path, count=2)
        out = tmp_path / "s.st"
        code = main(["mask", str(src), "--k", "10", "--base-params", "296450",
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "29645 (10.0x)" in stdout

    def test_all_zero_exits_4(self, tmp_path):
        file = AdapterFile(
            tensors=(
                TensorRecord("z.lora_A.weight", "F64", (2, 4), np.zeros((2, 4))),
                TensorRecord("z.lora_B.weight", "F64", (3, 2), np.zeros((3, 2))),
            ),
            metadata={},
        )
        src = tmp_path / "z.st"
        src.write_bytes(write_container(file))
        assert main(["mask", str(src), "--k", "10", "--out", str(tmp_path / "o.st")]) == 4

    def test_zero_matrix_skipped_with_warning(self, tmp_path, capsys):
        spec = FixtureSpec(kind="gaussian_iid", m=6, n=6, r=2, seed=1)
        good = generate(spec).tensors
        renamed = [
            TensorRecord(t.name.replace("layer.0", "layer.1"), t.dtype, t.shape, t.data)
            for t in good
        ]
        file = AdapterFile(
            tensors=(
                TensorRecord("layer.0.query.lora_A.weight", "F64", (2, 6), np.zeros((2, 6))),
                TensorRecord("layer.0.query.lora_B.weight", "F64", (6, 2), np.zeros((6, 2))),
                *renamed,
            ),
            metadata={},
        )
        src = tmp_path / "mixed.st"
        src.write_bytes(write_container(file))
        out = tmp_path / "o.st"
        assert main(["mask", str(src), "--k", "50", "--out", str(out)]) == 0
        assert "skipping zero update layer.0.query" in capsys.readouterr().err
        packed = read_container(out.read_bytes())
        assert "layer.1.query.spectral_values" in packed.names()
        assert "layer.0.query.spectral_values" not in packed.names()

    def test_k_out_of_domain_exits_1(self, tmp_path):
        src = synth(tmp_path)
        for bad in ["0", "101", "-3"]:
            assert main(["mask", str(src), "--k", bad,
                         "--out", str(tmp_path / "o.st")]) == 1

    def test_sparse_write_allocates_little_beyond_the_spectra(self, tmp_path, monkeypatch):
        """From the spectra to the file, only the binary64 copy of each index
        list is made (8 of the file's 12 bytes per coefficient); the file is
        never joined in memory."""
        src = synth(tmp_path, kind="gaussian_iid", m=512, n=512, r=4, count=4,
                    **{"noise-level": 0.0})
        out = tmp_path / "s.st"
        held = []
        pack = codec.pack_sparse_file

        def traced_pack(spectra):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return pack(spectra)

        monkeypatch.setattr(codec, "pack_sparse_file", traced_pack)
        argv = ["mask", str(src), "--k", "10", "--out", str(out), "--threads", "1"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held[0] <= 0.8 * out.stat().st_size


class TestMaskOfTheWholeSpectrum:
    """mask selects from row blocks of the factor product; its sparse file
    equals the encoded topk_mask of the whole spectrum, whatever the BLAS
    threading and pool size."""

    SPECS = (
        FixtureSpec("gaussian_iid", 257, 1024, 16, 3),  # last block: one row
        FixtureSpec("mixed", 700, 333, 8, 4, 0.3),  # ragged last block
    )
    K = ("0.01", "10", "50", "100")

    def test_sparse_file_equals_encoded_topk_mask(self, tmp_path):
        src = tmp_path / "src.st"
        src.write_bytes(write_container(generate_set(self.SPECS)))
        code = (
            "import sys; from lorafreq.cli import main; s, o, t = sys.argv[1:4]; "
            "sys.exit(sum(main(['mask', s, '--k', k, '--threads', t, "
            "'--out', f'{o}/{k}.st']) for k in sys.argv[4:]))"
        )
        env_unset = subprocess_env()
        env_unset.pop("OPENBLAS_NUM_THREADS", None)
        runs = (("one", subprocess_env(OPENBLAS_NUM_THREADS="1"), "1"),
                ("unset", env_unset, "2"))
        for tag, env, threads in runs:
            subprocess.run(
                [sys.executable, "-c", code, str(src), str(tmp_path / tag), threads,
                 *self.K],
                env=env, capture_output=True, timeout=300, check=True,
            )
        pairs = pair_lora(read_container(src.read_bytes())).pairs
        for k in self.K:
            encoded = []
            for pair in pairs:
                s = dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale)
                mask = topk_mask(s, float(k))
                flat = s.coefficients.data
                order = np.argsort(-np.abs(flat), kind="stable")[: mask.k_count]
                assert np.array_equal(mask.retained_flat_indices, np.sort(order))
                encoded.append(codec.encode_sparse(pair.prefix, s, mask))
            want = write_container(codec.pack_sparse_file(encoded))
            for tag, _, _ in runs:
                assert (tmp_path / tag / f"{k}.st").read_bytes() == want, (tag, k)

    def test_selection_holds_under_one_spectrum(self, peak_alloc):
        m = 1024
        pair = pair_lora(generate(FixtureSpec("mixed", m, m, 16, 11, 0.3))).pairs[0]
        args = (pair.b_matrix, pair.a_matrix, pair.scale, 10.0)
        _factored_selection(*args)  # numpy.fft's one-time set-up
        (indices, _), peak = peak_alloc(_factored_selection, *args)
        assert indices.size == m * m // 10 + 1
        assert peak <= 1.1 * 8 * m * m


class TestDecompress:
    def test_round_trip_matches_dense_mask(self, tmp_path):
        src = synth(tmp_path, count=3)
        sparse, dense, rt = (tmp_path / n for n in ("s.st", "d.st", "rt.st"))
        assert main(["mask", str(src), "--k", "20", "--out", str(sparse)]) == 0
        assert main(["mask", str(src), "--k", "20", "--emit", "dense",
                     "--out", str(dense)]) == 0
        assert main(["decompress", str(sparse), "--out", str(rt)]) == 0
        dense_file = read_container(dense.read_bytes())
        rt_file = read_container(rt.read_bytes())
        assert rt_file.names() == dense_file.names()
        for name in dense_file.names():
            a = dense_file.tensor(name).as_matrix().array
            b = rt_file.tensor(name).as_matrix().array
            assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-6

    def test_non_spectral_input_exits_5(self, tmp_path):
        src = synth(tmp_path)
        assert main(["decompress", str(src), "--out", str(tmp_path / "o.st")]) == 5

    def test_tagged_file_without_spectra_exits_5(self, tmp_path, capsys):
        meta = {"format": codec.FORMAT_TAG, "transform": codec.TRANSFORM_TAG,
                "k_percent": "10.0"}
        src = tmp_path / "empty.st"
        src.write_bytes(write_container(AdapterFile(tensors=(), metadata=meta)))
        capsys.readouterr()
        assert main(["decompress", str(src), "--out", str(tmp_path / "o.st")]) == 5
        assert "contains no spectra" in capsys.readouterr().err

    def test_tampered_indices_exit_5(self, tmp_path):
        src = synth(tmp_path)
        sparse = tmp_path / "s.st"
        assert main(["mask", str(src), "--k", "10", "--out", str(sparse)]) == 0
        packed = read_container(sparse.read_bytes())
        tensors = []
        for t in packed.tensors:
            if t.name.endswith(".spectral_indices"):
                data = t.data.copy()
                data[1] = data[0]  # break strict ordering
                t = TensorRecord(t.name, t.dtype, t.shape, data)
            tensors.append(t)
        bad = tmp_path / "bad.st"
        bad.write_bytes(
            write_container(AdapterFile(tensors=tuple(tensors), metadata=packed.metadata))
        )
        assert main(["decompress", str(bad), "--out", str(tmp_path / "o.st")]) == 5

    @pytest.mark.parametrize(
        "suffix, dtype, want",
        [(".spectral_values", "F16", "F32"), (".spectral_values", "F64", "F32"),
         (".spectral_indices", "F32", "F64")],
    )
    def test_wrong_dtype_tag_exits_5(self, tmp_path, capsys, suffix, dtype, want):
        """Values are F32 and indices F64; any other tag is corrupt, even
        when the retagged tensor holds the same numbers."""
        src = synth(tmp_path, m=16, n=16, count=1)
        sparse = tmp_path / "s.st"
        assert main(["mask", str(src), "--k", "10", "--out", str(sparse)]) == 0
        packed = read_container(sparse.read_bytes())
        tensors = [
            TensorRecord(t.name, dtype, t.shape, t.data) if t.name.endswith(suffix) else t
            for t in packed.tensors
        ]
        bad = tmp_path / "bad.st"
        bad.write_bytes(write_container(AdapterFile(tuple(tensors), packed.metadata)))
        capsys.readouterr()
        out = tmp_path / "o.st"
        assert main(["decompress", str(bad), "--out", str(out)]) == 5
        assert f"must be 1xc {want}, is (1, 26) {dtype}" in capsys.readouterr().err
        assert not out.exists()

    def test_shape_beyond_u32_index_range_exits_5(self, tmp_path, capsys):
        # Decoding would allocate 8 TiB for this shape before any index check.
        src = synth(tmp_path, m=16, n=16, count=1)
        sparse = tmp_path / "s.st"
        assert main(["mask", str(src), "--k", "10", "--out", str(sparse)]) == 0
        packed = read_container(sparse.read_bytes())
        (key,) = [k for k in packed.metadata if k.startswith("shape.")]
        meta = {**packed.metadata, key: "1048576,1048576"}
        bad = tmp_path / "bad.st"
        bad.write_bytes(write_container(AdapterFile(packed.tensors, meta)))
        capsys.readouterr()
        out = tmp_path / "o.st"
        assert main(["decompress", str(bad), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestStreamedDense:
    """decompress and mask --emit dense stream each inverse into the file."""

    @pytest.fixture
    def src(self, tmp_path):
        # "a-b.delta_w" sorts before "a.delta_w" although "a" precedes "a-b".
        tensors = []
        for i, prefix in enumerate(("a", "a-b", "layer.3.value")):
            pair = pair_lora(generate(FixtureSpec("mixed", 40 + i, 33, 3, i, 0.2))).pairs[0]
            tensors += [
                TensorRecord(f"{prefix}.lora_A.weight", "F64", pair.a_matrix.shape,
                             pair.a_matrix.array),
                TensorRecord(f"{prefix}.lora_B.weight", "F64", pair.b_matrix.shape,
                             pair.b_matrix.array),
            ]
        path = tmp_path / "src.st"
        path.write_bytes(write_container(AdapterFile(tensors=tuple(tensors))))
        return path

    def test_decompress_equals_write_container_of_decoded_records(self, src, tmp_path):
        sparse, out = tmp_path / "s.st", tmp_path / "d.st"
        assert main(["mask", str(src), "--k", "20", "--out", str(sparse)]) == 0
        assert main(["decompress", str(sparse), "--out", str(out)]) == 0
        records = []
        for s in codec.unpack_sparse_file(read_container(sparse.read_bytes())):
            dense = codec.decode_sparse(s)
            records.append(TensorRecord(f"{s.name}.delta_w", "F64", dense.shape, dense.array))
        want = write_container(AdapterFile(tensors=tuple(records), metadata={}))
        assert out.read_bytes() == want
        assert read_container(want).names()[:2] == ["a-b.delta_w", "a.delta_w"]

    def test_mask_dense_equals_reconstructed_records(self, src, tmp_path):
        out = tmp_path / "d.st"
        assert main(["mask", str(src), "--k", "20", "--emit", "dense",
                     "--out", str(out)]) == 0
        records = []
        for pair in pair_lora(read_container(src.read_bytes())).pairs:
            spectrum = dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale)
            recon = reconstruct(spectrum, topk_mask(spectrum, 20))
            records.append(
                TensorRecord(f"{pair.prefix}.delta_w", "F64", recon.shape, recon.array)
            )
        assert out.read_bytes() == write_container(AdapterFile(tensors=tuple(records)))

    @pytest.mark.parametrize(
        "argv",
        [["decompress", "{sparse}"], ["mask", "{src}", "--k", "20", "--emit", "dense"]],
        ids=["decompress", "mask-dense"],
    )
    def test_bytes_identical_across_threads_and_reruns(self, src, tmp_path, argv):
        sparse = tmp_path / "s.st"
        assert main(["mask", str(src), "--k", "20", "--out", str(sparse)]) == 0
        args = [arg.format(src=src, sparse=sparse) for arg in argv]
        outputs = set()
        for run, threads in enumerate(("1", "2", "4", "2")):
            out = tmp_path / f"out{run}.st"
            assert main([*args, "--out", str(out), "--threads", threads]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_one_inverse_alive_at_a_time(self, tmp_path):
        """At any thread count, decompress holds one dense matrix, not one
        per thread or all eight: the inverses take turns in one buffer.

        The read phase grows with k: the sparse file's raw bytes plus
        unpack_sparse_file's int64 and float32 copies set the whole run's
        peak at k = 10, 2.54 x 8mn, before any inverse runs. At k = 5 the
        peak is 1.8 x 8mn at one or two threads and 1.95 x at three, and a
        second dense buffer would break the bound."""
        src = synth(tmp_path, kind="gaussian_iid", m=256, n=256, r=4, count=8,
                    **{"noise-level": 0.0})
        sparse, out = tmp_path / "s.st", tmp_path / "d.st"
        assert main(["mask", str(src), "--k", "5", "--out", str(sparse)]) == 0
        for threads in ("1", "2", "3"):
            argv = ["decompress", str(sparse), "--out", str(out), "--threads", threads]
            assert main(argv) == 0  # numpy.fft's one-time set-up is not counted
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * 8 * 256 * 256, threads

    def test_failure_keeps_the_old_output_and_no_temp_file(
        self, src, tmp_path, monkeypatch, capsys
    ):
        sparse = tmp_path / "s.st"
        assert main(["mask", str(src), "--k", "20", "--out", str(sparse)]) == 0
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "d.st"
        out.write_bytes(b"earlier output")
        kernel = lorafreq.dct._idct_axis
        for threads in (1, 2):
            calls = []

            def fail_on_the_second_matrix(x, axis, entries=0):
                calls.append(axis)
                # Two axes per matrix, each split into one share per thread.
                if len(calls) > 2 * threads:
                    raise CorruptSparse("injected failure")
                kernel(x, axis, entries)

            monkeypatch.setattr(lorafreq.dct, "_idct_axis", fail_on_the_second_matrix)
            argv = ["decompress", str(sparse), "--out", str(out),
                    "--threads", str(threads)]
            assert main(argv) == 5
            assert "injected failure" in capsys.readouterr().err
            assert out.read_bytes() == b"earlier output"
            assert [p.name for p in out_dir.iterdir()] == ["d.st"]

    def test_the_reused_buffer_leaks_nothing_between_matrices(self, tmp_path):
        """Each inverse starts from zero in the buffer the last one left:
        a larger matrix before a smaller one, a transposed shape after it,
        and a 1 x 7 one with fewer rows than threads. The threads share the
        buffer, so the runs take a short switch interval and up to four
        threads, for a share that writes outside its lines to show."""
        rng = np.random.default_rng(29)
        tensors = []
        for name, (m, n) in (("a", (60, 40)), ("b", (50, 30)), ("c", (30, 50)),
                             ("d", (1, 7))):
            tensors += [
                TensorRecord(f"{name}.lora_A.weight", "F64", (1, n),
                             rng.standard_normal((1, n))),
                TensorRecord(f"{name}.lora_B.weight", "F64", (m, 1),
                             rng.standard_normal((m, 1))),
            ]
        src, sparse = tmp_path / "src.st", tmp_path / "s.st"
        src.write_bytes(write_container(AdapterFile(tensors=tuple(tensors))))
        assert main(["mask", str(src), "--k", "30", "--out", str(sparse)]) == 0
        records = []
        for s in codec.unpack_sparse_file(read_container(sparse.read_bytes())):
            dense = codec.decode_sparse(s)
            records.append(TensorRecord(f"{s.name}.delta_w", "F64", dense.shape, dense.array))
        want = write_container(AdapterFile(tensors=tuple(records), metadata={}))
        assert [r.shape for r in records] == [(60, 40), (50, 30), (30, 50), (1, 7)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in ("1", "2", "4"):
                out = tmp_path / f"d{threads}.st"
                assert main(["decompress", str(sparse), "--out", str(out),
                             "--threads", threads]) == 0
                assert out.read_bytes() == want
        finally:
            sys.setswitchinterval(interval)


class TestSweep:
    def test_rows_sorted_and_monotone(self, tmp_path):
        src = synth(tmp_path, count=3)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(src), "--k-list", "50,5,100,10,20",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "matrix_prefix,k,relative_error,retained_energy_fraction"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 5
        keys = [(r[0], float(r[1])) for r in rows]
        assert keys == sorted(keys)
        by_prefix = {}
        for r in rows:
            by_prefix.setdefault(r[0], []).append(float(r[2]))
        for errs in by_prefix.values():
            assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    def test_full_budget_error_negligible(self, tmp_path):
        src = synth(tmp_path, count=2)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(src), "--k-list", "100", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) < 1e-10

    def test_zero_k_exits_1(self, tmp_path):
        src = synth(tmp_path)
        assert main(["sweep", str(src), "--k-list", "0",
                     "--out", str(tmp_path / "s.csv")]) == 1

    def test_garbage_k_list_exits_1(self, tmp_path):
        src = synth(tmp_path)
        for k_list in ("5,banana", ","):
            assert main(["sweep", str(src), "--k-list", k_list,
                         "--out", str(tmp_path / "s.csv")]) == 1


class TestCorrelate:
    def test_report_schema(self, tmp_path):
        src = synth(tmp_path, m=32, n=32, count=6, **{"rank-ramp": True})
        out = tmp_path / "corr.json"
        assert main(["correlate", str(src), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, CORRELATE_SCHEMA)
        assert doc["n"] == 6
        assert doc["pearson"] > 0.9

    def test_three_matrices_exit_6(self, tmp_path):
        src = synth(tmp_path, count=3)
        assert main(["correlate", str(src), "--out", str(tmp_path / "c.json")]) == 6

    def test_identical_matrices_exit_6(self, tmp_path):
        src = synth(tmp_path, kind="smooth_lowrank", count=5, **{"noise-level": 0})
        assert main(["correlate", str(src), "--out", str(tmp_path / "c.json")]) == 6

    def test_svd_no_convergence_exits_6(self, tmp_path, monkeypatch, capsys):
        src = synth(tmp_path, count=4, **{"rank-ramp": True})
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        out = tmp_path / "c.json"
        assert main(["correlate", str(src), "--out", str(out), "--threads", "1"]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestBadFactors:
    """A factor with a NaN entry or a zero dimension is a malformed container."""

    @pytest.fixture(params=["nan-f32", "zero-dim"])
    def src(self, request, tmp_path):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((2, 6)), rng.standard_normal((6, 2))
        good = [
            TensorRecord("layer.0.query.lora_A.weight", "F64", (2, 6), a),
            TensorRecord("layer.0.query.lora_B.weight", "F64", (6, 2), b),
        ]
        if request.param == "nan-f32":
            a_bad = a.copy()
            a_bad[1, 3] = np.nan
            bad = TensorRecord("layer.1.query.lora_A.weight", "F32", (2, 6), a_bad)
        else:
            bad = TensorRecord("layer.1.query.lora_A.weight", "F32", (0, 6), [])
        tensors = good + [
            bad,
            TensorRecord("layer.1.query.lora_B.weight", "F64", (6, 2), b),
        ]
        path = tmp_path / "bad.st"
        path.write_bytes(write_container(AdapterFile(tensors=tuple(tensors))))
        return path

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["mask", "--k", "10"], ["sweep", "--k-list", "10"], ["correlate"]],
        ids=["analyze", "mask", "sweep", "correlate"],
    )
    def test_exits_2_naming_the_tensor(self, src, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([argv[0], str(src), *argv[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "layer.1.query.lora_A.weight" in err


class TestSignallingNan:
    """A binary32 signalling NaN (bits 0x7f800001) is rejected like any NaN:
    one error line, with no numpy cast warning before it."""

    def with_snan(self, raw: bytes, name: str) -> bytes:
        (header_len,) = struct.unpack("<Q", raw[:8])
        header = json.loads(raw[8 : 8 + header_len])
        at = 8 + header_len + header[name]["data_offsets"][0]
        return raw[:at] + struct.pack("<I", 0x7F800001) + raw[at + 4 :]

    def run(self, capsys, argv):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "RuntimeWarning" not in err and "Traceback" not in err
        return code

    def test_factor_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        tensors = (
            TensorRecord("layer.0.query.lora_A.weight", "F32", (2, 6),
                         rng.standard_normal(12)),
            TensorRecord("layer.0.query.lora_B.weight", "F32", (6, 2),
                         rng.standard_normal(12)),
        )
        raw = write_container(AdapterFile(tensors=tensors))
        src = tmp_path / "snan.st"
        src.write_bytes(self.with_snan(raw, "layer.0.query.lora_A.weight"))
        out = tmp_path / "out"
        assert self.run(capsys, ["analyze", str(src), "--out", str(out)]) == 2
        assert not out.exists()

    def test_sparse_value_exits_5(self, tmp_path, capsys):
        src = synth(tmp_path, count=1)
        sparse = tmp_path / "s.st"
        assert main(["mask", str(src), "--k", "10", "--out", str(sparse)]) == 0
        raw = sparse.read_bytes()
        (name,) = [n for n in read_container(raw).names() if n.endswith("_values")]
        bad = tmp_path / "bad.st"
        bad.write_bytes(self.with_snan(raw, name))
        out = tmp_path / "o.st"
        assert self.run(capsys, ["decompress", str(bad), "--out", str(out)]) == 5
        assert not out.exists()


class TestHostileScale:
    """Scale metadata that gives no usable scale, or an update whose energy
    would overflow, is a malformed container: exit 2 and one error line."""

    COMMANDS = [["analyze"], ["mask", "--k", "10"], ["sweep", "--k-list", "10"],
                ["correlate"]]
    IDS = ["analyze", "mask", "sweep", "correlate"]

    def with_metadata(self, tmp_path, metadata):
        src = synth(tmp_path)
        file = read_container(src.read_bytes())
        path = tmp_path / "meta.st"
        path.write_bytes(write_container(AdapterFile(file.tensors, metadata)))
        return path

    def run(self, capsys, argv):
        capsys.readouterr()  # drop synth's own stderr line
        code = main(argv)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return code, err

    # --scale does not excuse bad metadata: it is checked when the file is read.
    @pytest.mark.parametrize(
        "extra", [[], ["--scale", "2"]], ids=["metadata", "scale-flag"]
    )
    def test_nan_alpha_exits_2(self, tmp_path, capsys, extra):
        src = self.with_metadata(tmp_path, {"alpha": "nan", "r": "2"})
        argv = ["analyze", str(src), *extra, "--out", str(tmp_path / "o")]
        code, err = self.run(capsys, argv)
        assert code == 2
        assert "alpha='nan', r='2':" in err

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_overflowing_metadata_scale_exits_2(self, tmp_path, capsys, argv):
        src = self.with_metadata(tmp_path, {"alpha": "1e300", "r": "1e-8"})
        out = tmp_path / "out"
        assert self.run(capsys, [argv[0], str(src), *argv[1:], "--out", str(out)])[0] == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_overflowing_scale_flag_exits_2(self, tmp_path, capsys, argv):
        src = synth(tmp_path)
        out = tmp_path / "out"
        argv = [argv[0], str(src), *argv[1:], "--scale", "1e308", "--out", str(out)]
        assert self.run(capsys, argv)[0] == 2
        assert not out.exists()

    # No command checks the product entry by entry as a Matrix would:
    # analyze, sweep and correlate test its energy's total, and mask's
    # histogram of |F| counts the non-finite entries of its row blocks.
    # Every command reads the product from dct._factored_rows, so patching
    # that one function reaches all five.
    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["sweep", "--k-list", "10"], ["correlate"],
         ["mask", "--k", "10", "--emit", "sparse"],
         ["mask", "--k", "10", "--emit", "dense"]],
        ids=["analyze", "sweep", "correlate", "mask-sparse", "mask-dense"],
    )
    def test_non_finite_product_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        src = synth(tmp_path)
        rows = lorafreq.dct._factored_rows

        def rows_with_inf(b, a, scale):
            blocks = rows(b, a, scale)

            def blocks_with_inf(out=None):
                for block in blocks(out):
                    block[-1] = np.inf
                    yield block

            return blocks_with_inf

        monkeypatch.setattr(lorafreq.dct, "_factored_rows", rows_with_inf)
        out = tmp_path / "out"
        code, err = self.run(capsys, [argv[0], str(src), *argv[1:], "--out", str(out)])
        assert code == 2
        assert "not finite" in err
        assert not out.exists()

    def test_sparse_mask_beyond_binary32_exits_2(self, tmp_path, capsys):
        src = synth(tmp_path)
        out = tmp_path / "sparse.st"
        argv = ["mask", str(src), "--k", "10", "--scale", "1e40", "--out", str(out)]
        code, err = self.run(capsys, argv)
        assert code == 2
        assert "binary32" in err
        assert not out.exists()
        # The dense output is binary64 and holds the same coefficients.
        dense = tmp_path / "dense.st"
        assert main([*argv[:-1], str(dense), "--emit", "dense"]) == 0


def subprocess_env(**overrides) -> dict:
    """os.environ with this tree's lorafreq first on PYTHONPATH."""
    src = str(Path(lorafreq.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **overrides}


def test_cli_import_loads_no_scipy_stats_or_mpmath():
    """scipy.stats alone adds about a second to every command's start."""
    code = (
        "import sys, lorafreq.cli; "
        "print([m for m in ('scipy.stats', 'mpmath') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_start_up_loads_no_importlib_metadata(tmp_path):
    """importlib.metadata costs every process ~30 ms; only a report needs
    the tool version, so synth never loads it and analyze still records it."""
    code = """
import sys
from lorafreq.cli import main
d = sys.argv[1]
print("loaded", "importlib.metadata" in sys.modules)
assert main(["synth", "--kind", "mixed", "--m", "24", "--n", "20", "--count", "4",
             "--out", d + "/a.st"]) == 0
print("loaded", "importlib.metadata" in sys.modules)
assert main(["analyze", d + "/a.st", "--out", d + "/rep"]) == 0
from importlib import metadata
try:
    print("version", metadata.version("lorafreq"))
except metadata.PackageNotFoundError:
    print("version", "0.0.0")
"""
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    tagged = [line.split() for line in done.stdout.splitlines()]
    tagged = [words for words in tagged if words[:1] in (["loaded"], ["version"])]
    assert tagged[:2] == [["loaded", "False"], ["loaded", "False"]]
    report_doc = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert tagged[2:] == [["version", report_doc["tool_version"]]]


def test_tool_version_is_read_through_the_package():
    """The package's __getattr__ is the one lazy route to the version."""
    assert lorafreq.TOOL_VERSION == lorafreq.__version__ == report._tool_version()
    assert not hasattr(report, "TOOL_VERSION")


def test_export_list():
    """Every name in __all__ resolves, each listed once; the heatmap names
    are not exported, since analysis_report builds the heatmap itself."""
    namespace = {}
    exec("from lorafreq import *", namespace)
    assert len(set(lorafreq.__all__)) == len(lorafreq.__all__)
    for name in lorafreq.__all__:
        assert namespace[name] is getattr(lorafreq, name)
    for gone in ("layer_heatmap", "HeatmapTable", "HeatmapCell"):
        assert gone not in namespace
        assert not hasattr(lorafreq, gone)
        assert not hasattr(lorafreq.analysis, gone)


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_package_import_loads_no_scipy():
    """Importing scipy costs more than analyzing a BERT-base-sized adapter.
    The library's full-size transforms load none either."""
    code = (
        "import sys, lorafreq, lorafreq.cli; "
        "lorafreq.idct2(lorafreq.dct2(lorafreq.Matrix([[1.0, 2.0], [3.0, 4.0]]))); "
        f"print({_LOADED_SCIPY})"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def test_only_the_p_value_loads_scipy(tmp_path):
    """synth, analyze, sparse mask and sweep run without scipy; correlate
    loads it on first use, for the p-value."""
    code = f"""
import sys
from lorafreq.cli import main
d = sys.argv[1]
src = d + "/a.st"
for argv in (
    ["synth", "--kind", "mixed", "--m", "24", "--n", "20", "--count", "4",
     "--rank-ramp", "--noise-level", "0.1", "--out", src],
    ["analyze", src, "--out", d + "/rep"],
    ["mask", src, "--k", "10", "--out", d + "/s.st"],
    ["sweep", src, "--k-list", "5,50", "--out", d + "/sweep.csv"],
):
    assert main(argv) == 0, argv[0]
print({_LOADED_SCIPY})
assert main(["decompress", d + "/s.st", "--out", d + "/d.st"]) == 0
assert main(["correlate", src, "--out", d + "/c.json"]) == 0
"""
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # after mask's accounting lines
    assert json.loads((tmp_path / "c.json").read_text())["n"] == 4
    assert read_container((tmp_path / "d.st").read_bytes()).tensors


def test_dense_outputs_load_no_scipy(tmp_path):
    """decompress and mask --emit dense invert on numpy.fft alone."""
    code = f"""
import sys
from lorafreq.cli import main
d = sys.argv[1]
src = d + "/a.st"
for argv in (
    ["synth", "--kind", "mixed", "--m", "24", "--n", "20", "--count", "3",
     "--out", src],
    ["mask", src, "--k", "10", "--out", d + "/s.st"],
    ["decompress", d + "/s.st", "--out", d + "/d.st"],
    ["mask", src, "--k", "10", "--emit", "dense", "--out", d + "/m.st"],
):
    assert main(argv) == 0, argv[0]
print({_LOADED_SCIPY})
"""
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    for name in ("d.st", "m.st"):
        assert len(read_container((tmp_path / name).read_bytes()).tensors) == 3


def test_commands_take_the_spectrum_from_the_factors(tmp_path, monkeypatch):
    """No command merges an m x n update, transforms one, or inverts per k."""
    src = synth(tmp_path, count=4, **{"rank-ramp": True})

    def forbidden(*args, **kwargs):
        raise AssertionError("a command merged, transformed or inverted an update")

    # numpy as container.py sees it, less the outer product whose rank-1
    # terms merge_delta sums; container.py calls np.multiply nowhere else.
    class NumpyWithoutOuter:
        multiply = SimpleNamespace(outer=forbidden)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(lorafreq.container, "np", NumpyWithoutOuter())
    monkeypatch.setattr(lorafreq.dct, "dct2", forbidden)
    monkeypatch.setattr(lorafreq.analysis, "dct2", forbidden)
    monkeypatch.setattr(lorafreq.dct, "idct2", forbidden)
    monkeypatch.setattr(lorafreq.dct, "_idct_axis", forbidden)
    pair = pair_lora(read_container(src.read_bytes())).pairs[0]
    with pytest.raises(AssertionError):
        merge_delta(pair)
    for argv in (
        ["analyze", str(src)],
        ["mask", str(src), "--k", "10"],
        ["sweep", str(src), "--k-list", "5,20,50,100"],
        ["correlate", str(src)],
    ):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0, argv[0]


def test_exit_codes_follow_the_readme_table():
    """Every LorafreqError class carries the exit code of the README row
    that names its failure."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Exit codes\n\n")[1].split("\n\n")[0].splitlines()[2:]
    meaning = {int(row.split("|")[1]): row.split("|")[2] for row in table}
    row_words = {
        errors.InvalidSpec: "invalid fixture spec",
        errors.ContainerError: "malformed container",
        errors.ShapeMismatch: "malformed container",
        _NoPairsError: "pairs found",
        errors.ZeroSpectrum: "every update matrix is zero",
        errors.NotSpectralFile: "not a sparse spectral file",
        errors.CorruptSparse: "corrupt",
        errors.DegenerateInput: "degenerate statistics",
        errors.NoConvergence: "does not converge",
    }
    classes, stack = [], [errors.LorafreqError]
    while stack:
        subclasses = stack.pop().__subclasses__()
        classes += subclasses
        stack += subclasses
    for cls in classes:
        words = next(row_words[c] for c in cls.__mro__ if c in row_words)
        assert words in meaning[cls.exit_code], cls.__name__


class TestWriteBytes:
    def test_concurrent_writers_to_one_path(self, tmp_path):
        path = tmp_path / "out" / "report.json"
        payloads = [bytes([i]) * (4096 * (i + 1)) for i in range(4)]
        errors = []

        def writer(data):
            try:
                for _ in range(50):
                    _write_chunks(path, [data])
            except Exception as exc:  # collected, asserted empty below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_bytes() in payloads
        assert [p.name for p in path.parent.iterdir()] == ["report.json"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            _write_chunks(tmp_path / "out.st", [b"x"])
        assert list(tmp_path.iterdir()) == []

    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.st"
        _write_chunks(path, [b"x"])
        umask = os.umask(0o022)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask


class TestZeroUpdates:
    """One normal update, one whose energy underflows to 0, one exact zero."""

    ZERO_PREFIXES = ("layer.1.query", "layer.2.query")

    @pytest.fixture
    def src(self, tmp_path):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 6)), rng.standard_normal((6, 2))
        tensors = []
        # B scaled by 1e-170 gives an update of ~1e-170, whose squares are 0.
        for layer, b_scale in ((0, 1.0), (1, 1e-170), (2, 0.0)):
            tensors += [
                TensorRecord(f"layer.{layer}.query.lora_A.weight", "F64", (2, 6), a),
                TensorRecord(
                    f"layer.{layer}.query.lora_B.weight", "F64", (6, 2), b * b_scale
                ),
            ]
        path = tmp_path / "zeros.st"
        path.write_bytes(write_container(AdapterFile(tensors=tuple(tensors))))
        return path

    def test_analyze_flags_both(self, src, tmp_path):
        out = tmp_path / "rep"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert [row["zero_flag"] for row in doc["per_matrix"]] == [False, True, True]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["mask", "--k", "50"], 0),
            (["sweep", "--k-list", "10,50"], 0),
            (["correlate"], 6),  # one matrix left, correlate needs four
        ],
        ids=["mask", "sweep", "correlate"],
    )
    def test_skipped_with_one_warning_each(self, src, tmp_path, capsys, argv, code):
        out = tmp_path / "out"
        assert main([argv[0], str(src), *argv[1:], "--out", str(out)]) == code
        err = capsys.readouterr().err
        for prefix in self.ZERO_PREFIXES:
            assert err.count(f"warning: skipping zero update {prefix}\n") == 1
        if code == 0:
            assert b"layer.0.query" in out.read_bytes()
            assert b"layer.1" not in out.read_bytes()
            assert b"layer.2" not in out.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{src}"],
            ["mask", "{src}", "--k", "10"],
            ["mask", "{src}", "--k", "10", "--emit", "dense"],
            ["decompress", "{sparse}"],
            ["sweep", "{src}", "--k-list", "5,20,50"],
            ["correlate", "{src}"],
        ],
        ids=["analyze", "mask-sparse", "mask-dense", "decompress", "sweep", "correlate"],
    )
    def test_threads_do_not_change_output(self, tmp_path, argv):
        # A rank ramp gives correlate four matrices with distinct k90s.
        src = synth(tmp_path, count=4, **{"rank-ramp": True})
        sparse = tmp_path / "sparse.st"
        assert main(["mask", str(src), "--k", "10", "--out", str(sparse)]) == 0
        outputs = []
        for threads in ("1", "4"):
            out = tmp_path / f"threads{threads}"
            args = [arg.format(src=src, sparse=sparse) for arg in argv]
            assert main([*args, "--out", str(out), "--threads", threads]) == 0
            if out.is_dir():
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            else:
                outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The max_workers of every pool map_matrices starts, in order."""
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(report, "ThreadPoolExecutor", RecordingPool)
        return sizes

    def test_default_pool_has_one_thread_per_usable_core(self, monkeypatch, pool_sizes):
        """Without --threads the pool follows the affinity mask, not the
        machine's core count, since each worker holds an m x n spectrum."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert list(report.map_matrices(lambda x: 2 * x, [1, 2, 3], None)) == [2, 4, 6]
        assert list(report.map_matrices(lambda x: 2 * x, [1, 2, 3], 3)) == [2, 4, 6]
        assert pool_sizes == [1, 3]

    @pytest.mark.parametrize("cores, workers", [(3, 3), (None, 1)])
    def test_default_pool_without_an_affinity_mask(
        self, monkeypatch, pool_sizes, cores, workers
    ):
        """macOS and Windows have no os.sched_getaffinity: the pool then has
        one thread per core, or one when the count is unknown."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert list(report.map_matrices(lambda x: 2 * x, [1, 2, 3], None)) == [2, 4, 6]
        assert pool_sizes == [workers]

    def test_a_failed_matrix_cancels_the_queue(self):
        """An error other than ZeroSpectrum stops the queued matrices: only
        those already running finish."""
        calls = []

        def fn(item):
            calls.append(item)
            if item == 0:
                raise errors.ContainerError("bad matrix")
            time.sleep(0.01)
            return item

        with pytest.raises(errors.ContainerError, match="bad matrix"):
            list(report.map_matrices(fn, range(50), 2))
        assert len(calls) <= 2 * 2

    def test_a_consumer_that_stops_cancels_the_queue(self):
        calls = []

        def fn(item):
            calls.append(item)
            time.sleep(0.01)
            return item

        results = report.map_matrices(fn, range(50), 2)
        assert next(results) == 0
        results.close()
        assert len(calls) <= 2 * 2

    def test_blas_threads_do_not_change_output(self, tmp_path):
        """Each spectrum is a BLAS product; its bytes must not follow BLAS's
        threading. One fresh interpreter per setting, since OpenBLAS reads
        the variable when it loads."""
        src = synth(tmp_path, m=512, n=512, r=16, count=2)
        code = (
            "import sys; from lorafreq.cli import main; s, o = sys.argv[1:]; "
            "main(['analyze', s, '--out', o + '/analyze']); "
            "main(['mask', s, '--k', '10', '--emit', 'dense', '--out', o + '/d.st']); "
            "main(['sweep', s, '--k-list', '1,10,50', '--out', o + '/sweep.csv'])"
        )
        env_unset = subprocess_env()
        env_unset.pop("OPENBLAS_NUM_THREADS", None)
        outputs = []
        for tag, env in (("one", subprocess_env(OPENBLAS_NUM_THREADS="1")),
                         ("unset", env_unset)):
            out = tmp_path / tag
            subprocess.run([sys.executable, "-c", code, str(src), str(out)],
                           env=env, capture_output=True, timeout=300, check=True)
            files = sorted(p for p in out.rglob("*") if p.is_file())
            assert len(files) == 6  # report.json, 2 curves, combined, dense, sweep
            outputs.append({p.relative_to(out): p.read_bytes() for p in files})
        assert outputs[0] == outputs[1]

    def test_analyze_and_mask_reruns_byte_identical(self, tmp_path):
        src = synth(tmp_path, count=3)
        outs = []
        for tag in ("one", "two"):
            rep = tmp_path / f"rep_{tag}"
            sparse = tmp_path / f"s_{tag}.st"
            assert main(["analyze", str(src), "--out", str(rep)]) == 0
            assert main(["mask", str(src), "--k", "10", "--out", str(sparse)]) == 0
            outs.append((
                (rep / "report.json").read_bytes(),
                (rep / "curves_combined.csv").read_bytes(),
                sparse.read_bytes(),
            ))
        assert outs[0] == outs[1]
