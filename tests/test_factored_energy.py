"""analyze, sweep and correlate sort each factored spectrum in its own buffer.

Their results must equal the public path (dct2_factored, then energy_curve,
k_for_energy, curve_points or sweep) bit for bit, and each matrix in flight
must hold about one m x n array.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

import lorafreq as lf
from lorafreq import report
from lorafreq.analysis import energy_curve, k_for_energy, sweep
from lorafreq.cli import main
from lorafreq.container import (
    AdapterFile,
    TensorRecord,
    pair_lora,
    read_container,
    write_container,
)
from lorafreq.dct import dct2_factored
from lorafreq.fixtures import FixtureSpec, generate, generate_set

SPECS = {
    "1x1": FixtureSpec("gaussian_iid", 1, 1, 1, 11),
    "1xn": FixtureSpec("gaussian_iid", 1, 40, 1, 12),
    "mx1": FixtureSpec("gaussian_iid", 40, 1, 1, 13),
    "768x51-r8": FixtureSpec("mixed", 768, 51, 8, 14, 0.3),
    "5000-thinned": FixtureSpec("gaussian_iid", 50, 100, 4, 15),
    # DCT-basis factors: most coefficients are exact zeros, so ties abound.
    "smooth-ties": FixtureSpec("smooth_lowrank", 64, 64, 2, 16),
}
SWEEP_K = [0.5, 1.0, 10.0, 33.0, 100.0]


@pytest.fixture(scope="module")
def src(tmp_path_factory):
    """One container: a pair per spec at layers 0..5, then an all-zero pair."""
    file = generate_set(SPECS.values())
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((2, 9)), np.zeros((7, 2))
    zero = (
        TensorRecord("layer.6.query.lora_A.weight", "F64", a.shape, a),
        TensorRecord("layer.6.query.lora_B.weight", "F64", b.shape, b),
    )
    path = tmp_path_factory.mktemp("factored") / "pairs.st"
    path.write_bytes(write_container(AdapterFile(file.tensors + zero, {})))
    return path


@pytest.fixture(scope="module")
def pairs(src):
    pairs = pair_lora(read_container(src.read_bytes())).pairs
    assert [p.prefix for p in pairs] == [f"layer.{i}.query" for i in range(7)]
    return pairs


def public_curve(pair):
    return energy_curve(dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("target", [0.9, 0.37])
def test_analysis_rows_equal_the_public_path(pairs, threads, target):
    rows = report.analysis_rows(pairs, target, threads)
    assert len(rows) == len(pairs)
    for pair, (row, points) in zip(pairs, rows):
        curve = public_curve(pair)
        assert row["total_energy"].hex() == curve.total_energy.hex()
        assert row["zero_flag"] is curve.is_zero
        assert points == report.curve_points(curve)
        if curve.is_zero:
            assert row["k90_percent"] is None and row["coeff_count_90"] is None
            continue
        summary = k_for_energy(curve, target)
        assert row["k90_percent"] == summary.k90_percent
        assert row["coeff_count_90"] == summary.coeff_count_90
    assert [row["zero_flag"] for row, _ in rows] == [False] * 6 + [True]
    # The 768x51 and 50x100 curves are thinned, the others are not.
    assert [len(points) for _, points in rows] == [1, 40, 40, 2048, 2048, 4096, 0]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_points_equal_the_public_path(src, pairs, tmp_path, threads):
    out = tmp_path / "sweep.csv"
    k_list = ",".join(str(k) for k in SWEEP_K)
    assert main(["sweep", str(src), "--k-list", k_list, "--out", str(out),
                 "--threads", threads]) == 0
    with out.open(newline="") as fh:
        got = [row for row in csv.reader(fh)][1:]
    want = [
        [pair.prefix, repr(pt.k_percent), repr(pt.relative_error),
         repr(pt.retained_energy_fraction)]
        for pair in pairs[:-1]  # the zero update is skipped
        for pt in sweep(dct2_factored(pair.b_matrix, pair.a_matrix, pair.scale), SWEEP_K)
    ]
    assert got == want


def test_correlate_dct_column_equals_the_public_path(src, pairs):
    doc = report.correlate_report(str(src), pairs, 1.0, 2)
    want = [
        [pair.prefix, k_for_energy(public_curve(pair)).k90_percent]
        for pair in pairs[:-1]
    ]
    assert [[prefix, dct] for prefix, _, dct in doc["per_matrix"]] == want


class TestOneBufferPerMatrix:
    """tracemalloc peaks on one 768^2 rank-8 pair, in units of its spectrum."""

    M = 768
    SPEC = FixtureSpec("mixed", M, M, 8, 11, 0.3)
    LIMIT = 1.1 * 8 * M * M

    def test_analysis_rows(self, peak_alloc):
        pairs = pair_lora(generate(self.SPEC)).pairs
        report.analysis_rows(pairs, 0.9, 1)  # numpy.fft's one-time set-up
        _, peak = peak_alloc(report.analysis_rows, pairs, 0.9, 1)
        assert peak <= self.LIMIT

    def test_sweep_command(self, peak_alloc, tmp_path):
        src = tmp_path / "a.st"
        src.write_bytes(write_container(generate(self.SPEC)))
        argv = ["sweep", str(src), "--k-list", "1,5,10,25,50", "--threads", "1",
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 0
        code, peak = peak_alloc(main, argv)
        assert code == 0
        assert peak <= self.LIMIT

    def test_correlate_report(self, peak_alloc):
        specs = [FixtureSpec("mixed", self.M, self.M, r, 11, 0.3) for r in (2, 4, 6, 8)]
        pairs = pair_lora(generate_set(specs)).pairs
        report.correlate_report("x", pairs, 1.0, 1)
        _, peak = peak_alloc(report.correlate_report, "x", pairs, 1.0, 1)
        assert peak <= self.LIMIT


def test_calls_of_the_benchmark_pipeline(tmp_path):
    """The public calls perfbench/pipeline.py makes with --trace 1."""
    path = tmp_path / "tiny.st"
    spec = FixtureSpec("mixed", 12, 10, 2, 5, 0.3)
    path.write_bytes(lf.write_container(lf.generate(spec)))
    pairs = lf.pair_lora(lf.read_container(path.read_bytes())).pairs
    (pair,) = pairs
    delta = lf.merge_delta(pair)
    curve = lf.energy_curve(lf.dct2(delta))
    summary = lf.k_for_energy(curve, 0.9)
    assert len(report.curve_points(curve)) == 120
    row = {
        "prefix": pair.prefix,
        "layer_index": pair.layer_index,
        "module_kind": pair.module_kind,
        "shape": list(pair.out_shape),
        "k90_percent": summary.k90_percent,
        "coeff_count_90": summary.coeff_count_90,
        "total_energy": curve.total_energy,
        "zero_flag": curve.is_zero,
    }
    doc = report.analysis_report(str(path), pairs, [(row, curve)], pair.scale)
    assert doc["per_matrix"] == [row]
    assert doc["aggregate"]["mean_k90"] == summary.k90_percent
    assert [pt.k_count for pt in lf.sweep(delta, [1.0, 50.0])] == [2, 60]
    assert lf.dct_k90(delta).k90_percent == summary.k90_percent
