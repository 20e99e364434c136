"""The oracle accepts real CLI outputs and rejects copies with one value altered."""

import csv
import json
import shutil
import struct

import pytest
from lorafreq.cli import main as lorafreq

from oracle import Oracle, read_container

SWEEP_K = ["1", "10", "50"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    runs = {
        "synth": ["synth", "--kind", "mixed", "--m", "24", "--n", "20", "--noise-level", "0.3",
                  "--rank-ramp", "--count", "6", "--seed", "3", "--out", str(d / "input.lf")],
        "analyze": ["analyze", str(d / "input.lf"), "--out", str(d / "analyze")],
        "mask": ["mask", str(d / "input.lf"), "--k", "10", "--out", str(d / "sparse.lf")],
        "decompress": ["decompress", str(d / "sparse.lf"), "--out", str(d / "dense.lf")],
        "sweep": ["sweep", str(d / "input.lf"), "--k-list", ",".join(SWEEP_K),
                  "--out", str(d / "sweep.csv")],
        "correlate": ["correlate", str(d / "input.lf"), "--out", str(d / "correlate.json")],
    }
    for argv in runs.values():
        assert lorafreq(argv + (["--threads", "1"] if argv[0] != "synth" else [])) == 0
    return d


def _copy(src, tmp_path):
    dst = tmp_path / "outputs"
    shutil.copytree(src, dst)
    return dst


def _check(d):
    oracle = Oracle(d / "input.lf", 0.9, 10.0, SWEEP_K)
    return oracle.check(
        {
            "analyze": (0, d / "analyze"),
            "mask": (0, d / "sparse.lf"),
            "decompress": (0, d / "dense.lf"),
            "sweep": (0, d / "sweep.csv"),
            "correlate": (0, d / "correlate.json"),
        }
    )


def _failing(problems):
    return {cmd for cmd, found in problems.items() if found}


def test_real_outputs_pass(outputs):
    assert _check(outputs) == {c: [] for c in ("analyze", "mask", "decompress", "sweep", "correlate")}


def test_altered_k90_fails(outputs, tmp_path):
    d = _copy(outputs, tmp_path)
    path = d / "analyze" / "report.json"
    doc = json.loads(path.read_text())
    row = doc["per_matrix"][2]
    row["coeff_count_90"] += 1
    row["k90_percent"] = 100.0 * row["coeff_count_90"] / (row["shape"][0] * row["shape"][1])
    path.write_text(json.dumps(doc))
    assert _failing(_check(d)) == {"analyze"}


def test_altered_sweep_row_fails(outputs, tmp_path):
    d = _copy(outputs, tmp_path)
    path = d / "sweep.csv"
    rows = list(csv.reader(path.open()))
    rows[4][2] = repr(float(rows[4][2]) * (1 + 1e-6))
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert _failing(_check(d)) == {"sweep"}


def test_altered_sparse_value_fails(outputs, tmp_path):
    d = _copy(outputs, tmp_path)
    path = d / "sparse.lf"
    _, tensors = read_container(path)
    name = sorted(n for n in tensors if n.endswith(".spectral_values"))[0]
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<Q", raw[:8])
    start = json.loads(raw[8 : 8 + header_len])[name]["data_offsets"][0]
    at = 8 + header_len + start + 4  # the second kept value
    (value,) = struct.unpack("<f", raw[at : at + 4])
    raw[at : at + 4] = struct.pack("<f", value * 1.001)
    path.write_bytes(bytes(raw))
    assert _failing(_check(d)) == {"mask"}


def test_altered_dense_value_fails(outputs, tmp_path):
    d = _copy(outputs, tmp_path)
    path = d / "dense.lf"
    raw = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<Q", raw[:8])
    at = 8 + header_len + 8 * 5
    (value,) = struct.unpack("<d", raw[at : at + 8])
    raw[at : at + 8] = struct.pack("<d", value + 1e-3)
    path.write_bytes(bytes(raw))
    assert _failing(_check(d)) == {"decompress"}


def test_altered_p_value_fails(outputs, tmp_path):
    d = _copy(outputs, tmp_path)
    path = d / "correlate.json"
    doc = json.loads(path.read_text())
    doc["p_value"] *= 1.01
    path.write_text(json.dumps(doc))
    assert _failing(_check(d)) == {"correlate"}


def test_constant_k90_series_needs_the_degenerate_exit(outputs, tmp_path):
    d = _copy(outputs, tmp_path)
    oracle = Oracle(d / "input.lf", 0.9, 10.0, SWEEP_K)
    first = oracle.factors[sorted(oracle.factors)[0]]
    for prefix in oracle.factors:
        oracle.factors[prefix] = first  # every matrix alike: both series constant
    missing = d / "absent.json"
    assert oracle.check({"correlate": (6, missing)})["correlate"] == []
    assert oracle.check({"correlate": (0, d / "correlate.json")})["correlate"]


def test_failed_exit_is_reported_without_reading_the_output(outputs):
    oracle = Oracle(outputs / "input.lf", 0.9, 10.0, SWEEP_K)
    assert oracle.check({"mask": (2, outputs / "missing.lf")}) == {"mask": ["exit code 2"]}


def test_kept_coefficients_is_ceil_k_percent_per_matrix(outputs):
    oracle = Oracle(outputs / "input.lf", 0.9, 10.0, SWEEP_K)
    assert oracle.kept_coefficients() == 6 * 48  # 10% of 24*20, exactly
