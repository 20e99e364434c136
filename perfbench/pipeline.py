"""Each CLI command's pipeline, rebuilt from lorafreq's public functions.

It runs serially in this process with one span per call, so the spans give
per-layer times. A span named `<module>.<function>` wraps exactly one call;
container.read_container also covers reading the file's bytes and
container.write_container writing them, as the CLI does in one statement.
Calls made inside the package (the DCT inside sweep, say) are part of the
calling span. Spans named `command.<name>` are parents: their self time is
the glue here that no layer span covers.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import lorafreq as lf
from lorafreq import report

from tracing import Tracer
from workloads import ENERGY_TARGET, MASK_K, Workload


def run(tracer, workload, input_path: Path, out_dir: Path) -> None:
    """Run every command of the workload, in order, on one thread."""
    for command in workload.commands:
        with tracer.span(f"command.{command}", command):
            _COMMANDS[command](tracer, workload, input_path, out_dir)


def generate(tracer, workload, seed: int):
    """What `synth` computes before it writes the file."""
    specs = workload.fixture_specs(lf, seed)
    with tracer.span("fixtures.generate_set", "synth") as c:
        c["matrices"] = len(specs)
        return lf.generate_set(specs)


def _pairs(tr, cmd, path):
    with tr.span("container.read_container", cmd) as c:
        raw = Path(path).read_bytes()
        file = lf.read_container(raw)
        c["bytes_in"] = len(raw)
    with tr.span("container.pair_lora", cmd) as c:
        pairs = lf.pair_lora(file).pairs
        c["matrices"] = len(pairs)
    return pairs


def _merge(tr, cmd, pair):
    with tr.span("container.merge_delta", cmd, pair.prefix, pair.out_shape, alloc=True):
        return lf.merge_delta(pair)


def _dct(tr, cmd, pair, delta):
    with tr.span("dct.dct2", cmd, pair.prefix, pair.out_shape, alloc=True) as c:
        c["coefficients"] = delta.rows * delta.cols
        return lf.dct2(delta)


def _write(tr, cmd, file, path):
    with tr.span("container.write_container", cmd) as c:
        data = lf.write_container(file)
        Path(path).write_bytes(data)
        c["bytes_out"] = len(data)


def _analyze(tr, w, input_path, out_dir):
    cmd = "analyze"
    pairs = _pairs(tr, cmd, input_path)
    rows_curves = []
    for pair in pairs:
        delta = _merge(tr, cmd, pair)
        spectrum = _dct(tr, cmd, pair, delta)
        with tr.span("analysis.energy_curve", cmd, pair.prefix, pair.out_shape, alloc=True):
            curve = lf.energy_curve(spectrum)
        with tr.span("analysis.k_for_energy", cmd, pair.prefix, pair.out_shape):
            summary = lf.k_for_energy(curve, ENERGY_TARGET)
        with tr.span("report.curve_points", cmd, pair.prefix, pair.out_shape):
            report.curve_points(curve)
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
        rows_curves.append((row, curve))
    with tr.span("report.analysis_report", cmd):
        report.analysis_report(str(input_path), pairs, rows_curves, pairs[0].scale)


def _mask(tr, w, input_path, out_dir):
    cmd = "mask"
    spectra = []
    for pair in _pairs(tr, cmd, input_path):
        spectrum = _dct(tr, cmd, pair, _merge(tr, cmd, pair))
        with tr.span("analysis.topk_mask", cmd, pair.prefix, pair.out_shape, alloc=True):
            mask = lf.topk_mask(spectrum, MASK_K)
        with tr.span("codec.encode_sparse", cmd, pair.prefix, pair.out_shape) as c:
            spectra.append(lf.encode_sparse(pair.prefix, spectrum, mask))
            c["kept"] = mask.k_count
    with tr.span("codec.pack_sparse_file", cmd):
        file = lf.pack_sparse_file(spectra)
    _write(tr, cmd, file, out_dir / "sparse.lf")


def _decompress(tr, w, input_path, out_dir):
    cmd = "decompress"
    with tr.span("container.read_container", cmd) as c:
        raw = (out_dir / "sparse.lf").read_bytes()
        file = lf.read_container(raw)
        c["bytes_in"] = len(raw)
    with tr.span("codec.unpack_sparse_file", cmd):
        spectra = lf.unpack_sparse_file(file)
    tensors = []
    for s in spectra:
        with tr.span("codec.decode_sparse", cmd, s.name, s.shape, alloc=True):
            dense = lf.decode_sparse(s)
        with tr.span("container.tensor_record", cmd, s.name, s.shape):
            tensors.append(lf.TensorRecord(f"{s.name}.delta_w", "F64", dense.shape, dense.array))
    _write(tr, cmd, lf.AdapterFile(tensors=tuple(tensors), metadata={}), out_dir / "dense.lf")


def _sweep(tr, w, input_path, out_dir):
    cmd = "sweep"
    ks = sorted({float(k) for k in w.sweep_k.split(",")})
    for pair in _pairs(tr, cmd, input_path):
        delta = _merge(tr, cmd, pair)
        with tr.span("analysis.sweep", cmd, pair.prefix, pair.out_shape, alloc=True) as c:
            c["points"] = len(lf.sweep(delta, ks))


def _correlate(tr, w, input_path, out_dir):
    cmd = "correlate"
    rows = []
    for pair in _pairs(tr, cmd, input_path):
        delta = _merge(tr, cmd, pair)
        with tr.span("stats.svd_k90", cmd, pair.prefix, pair.out_shape) as c:
            svd_value = lf.svd_k90(delta)
            c["cells"] = delta.rows * delta.cols
        with tr.span("analysis.dct_k90", cmd, pair.prefix, pair.out_shape):
            dct_value = lf.dct_k90(delta).k90_percent
        rows.append((svd_value, dct_value))
    with tr.span("stats.svd_dct_correlate", cmd):
        try:
            lf.svd_dct_correlate(rows)
        except lf.DegenerateInput:
            pass  # a constant k90 series; the CLI exits 6 here after the same work


_COMMANDS = {
    "analyze": _analyze,
    "mask": _mask,
    "decompress": _decompress,
    "sweep": _sweep,
    "correlate": _correlate,
}


def main(argv: list[str]) -> int:
    """Time the workload's fixture generation, then one serial pass without
    spans and one with them; write the spans and both passes' bounds as JSON."""
    req = json.loads(argv[1])
    workload = Workload(**req["workload"])
    tracer = Tracer(workload.name)
    generate(tracer, workload, req["seed"])
    bounds = []
    for pass_tracer in (Tracer(workload.name, enabled=False), tracer):
        out = Path(req["dir"]) / f"pass-{len(bounds)}"
        out.mkdir()
        start = time.perf_counter_ns()
        run(pass_tracer, workload, Path(req["input"]), out)
        bounds.append((start, time.perf_counter_ns()))
        shutil.rmtree(out)
    result = {"serial_ns": bounds[0], "traced_ns": bounds[1], "spans": tracer.spans}
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
