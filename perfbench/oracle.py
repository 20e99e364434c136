"""Output oracle built on numpy and scipy alone; it imports nothing from lorafreq.

It parses the container format itself, merges dW = scale * B @ A with numpy,
takes the orthonormal DCT-II with scipy.fft.dctn and checks each command's
output against that spectrum:

- analyze: k90 counts, the k90 percentage and the total energy per matrix;
- mask: the kept count ceil(k*m*n/100), index validity, the F32 values and
  that the kept set holds the top-k energy;
- decompress: the reconstruction error against sqrt(1 - retained);
- sweep: every row against the Parseval identity;
- correlate: svd_k90 against numpy.linalg.svd, dct_k90, and Pearson,
  Spearman and the Pearson p-value against scipy.stats. When either k90
  series is constant the statistics are undefined, and correlate must exit
  with the documented code 6 and write nothing.

A k90-style count c is accepted when the oracle's cumulative energy fraction
brackets the target at c within 1e-9, so summation-order differences at an
exact tie do not count as failures.
"""

from __future__ import annotations

import csv
import json
import math
import struct
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import fft, stats

from workloads import DEGENERATE_EXIT

FORMAT_TAG = "spectral-sparse-v1"
BRACKET_TOL = 1e-9
VALUE_TOL = 1e-9
_DTYPES = {"F16": "<f2", "F32": "<f4", "F64": "<f8"}
_F32_REL = 2.0**-23  # one binary32 ulp, relative


def read_container(path) -> tuple[dict, dict]:
    """(metadata, {name: read-only 2-D array}) of a container file."""
    raw = np.memmap(path, dtype=np.uint8, mode="r")
    (header_len,) = struct.unpack("<Q", raw[:8].tobytes())
    header = json.loads(raw[8 : 8 + header_len].tobytes().decode("utf-8"))
    metadata = header.pop("__metadata__", {})
    base = 8 + header_len
    tensors = {}
    for name, entry in header.items():
        start, end = entry["data_offsets"]
        data = raw[base + start : base + end].view(_DTYPES[entry["dtype"]])
        tensors[name] = (entry["dtype"], data.reshape(entry["shape"]))
    return metadata, tensors


def mask_count(k_percent: float, total: int) -> int:
    return max(1, min(total, math.ceil(k_percent * total / 100.0 - 1e-9)))


def brackets(fraction: np.ndarray, count: int, target: float) -> bool:
    """True when `count` is the smallest count reaching `target`, within tolerance."""
    if not 1 <= count <= fraction.size:
        return False
    if fraction[count - 1] < target - BRACKET_TOL:
        return False
    return count == 1 or fraction[count - 2] < target + BRACKET_TOL


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_tol


class Oracle:
    """Reference values for one input container, computed matrix by matrix."""

    def __init__(self, input_path, energy_target=0.9, mask_k=10.0, sweep_k=()):
        metadata, tensors = read_container(input_path)
        self.energy_target = energy_target
        self.mask_k = mask_k
        self.sweep_k = sorted(set(float(k) for k in sweep_k))
        self.scale = _scale(metadata)
        factors: dict[str, dict[str, np.ndarray]] = {}
        for name, (_, data) in tensors.items():
            for role in ("A", "B"):
                pos = name.find(f"lora_{role}")
                if pos >= 0:
                    factors.setdefault(name[:pos].rstrip("."), {})[role] = data
        self.factors = factors

    def delta(self, prefix: str) -> np.ndarray:
        f = self.factors[prefix]
        return (np.asarray(f["B"], np.float64) @ np.asarray(f["A"], np.float64)) * self.scale

    def check(self, outputs: dict) -> dict[str, list[str]]:
        """Problems per command; `outputs` maps command -> (exit code, output path)."""
        problems = {cmd: [] for cmd in outputs}
        for cmd, (code, _) in outputs.items():
            if code != 0 and cmd != "correlate":
                problems[cmd].append(f"exit code {code}")
        live = {cmd: path for cmd, (code, path) in outputs.items() if code == 0}
        docs = _load_outputs(live, problems)
        series = []
        for prefix in sorted(self.factors):
            dw = self.delta(prefix)
            m, n = dw.shape
            coeffs = fft.dctn(dw, type=2, norm="ortho")
            energies = np.sort((coeffs * coeffs).ravel())[::-1]
            fraction = np.cumsum(energies)
            total = float(fraction[-1])
            fraction /= total
            del energies
            ctx = _Matrix(prefix, dw, coeffs, fraction, total)
            for cmd, doc in docs.items():
                try:
                    problems[cmd] += getattr(self, f"_{cmd}")(ctx, doc)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problems[cmd].append(f"{cmd}: malformed output for {prefix}: {exc!r}")
            if "correlate" in outputs:
                series.append(self._k90_pair(ctx))
            del ctx, coeffs, fraction, dw  # a 4096^2 matrix holds 128 MB per array
        for cmd, message in self._unexpected(docs):
            problems[cmd].append(message)
        if "correlate" in outputs:
            problems["correlate"] += self._correlation(outputs["correlate"], series)
        return problems

    def _unexpected(self, docs):
        """Rows or tensors beyond the ones the oracle checked."""
        prefixes = sorted(self.factors)
        want = {
            "analyze": len(prefixes),
            "sweep": len(prefixes) * len(self.sweep_k),
        }
        for cmd, count in want.items():
            if cmd in docs and docs[cmd].count != count:
                yield cmd, f"{cmd}: {docs[cmd].count} rows, want {count}"
        names = {
            "mask": {f"{p}.spectral_{part}" for p in prefixes for part in ("indices", "values")},
            "decompress": {f"{p}.delta_w" for p in prefixes},
        }
        for cmd, expected in names.items():
            if cmd in docs and set(docs[cmd][1]) != expected:
                yield cmd, f"{cmd}: tensor names differ from the input's matrices"

    def kept_coefficients(self) -> int:
        """Coefficients a k% sparse file of this input holds."""
        return sum(
            mask_count(self.mask_k, f["B"].shape[0] * f["A"].shape[1])
            for f in self.factors.values()
        )

    def _analyze(self, ctx, doc) -> list[str]:
        row = doc.rows.get(ctx.prefix)
        if row is None:
            return [f"analyze: no row for {ctx.prefix}"]
        out = []
        size = ctx.fraction.size
        count = row["coeff_count_90"]
        if row["shape"] != list(ctx.dw.shape) or row["zero_flag"]:
            out.append(f"analyze: {ctx.prefix} shape/zero flag wrong")
        if not isinstance(count, int) or not brackets(ctx.fraction, count, self.energy_target):
            out.append(f"analyze: {ctx.prefix} coeff_count_90 {count} misses the 0.9 bracket")
        elif not _close(row["k90_percent"], 100.0 * count / size, 1e-12):
            out.append(f"analyze: {ctx.prefix} k90_percent {row['k90_percent']} != 100*{count}/{size}")
        if not _close(row["total_energy"], ctx.total, VALUE_TOL):
            out.append(f"analyze: {ctx.prefix} total_energy {row['total_energy']} vs {ctx.total}")
        return out

    def _mask(self, ctx, doc) -> list[str]:
        metadata, tensors = doc
        p = ctx.prefix
        m, n = ctx.dw.shape
        idx_entry = tensors.get(f"{p}.spectral_indices")
        val_entry = tensors.get(f"{p}.spectral_values")
        if idx_entry is None or val_entry is None:
            return [f"mask: {p} index/value tensors missing"]
        if (
            metadata.get("format") != FORMAT_TAG
            or metadata.get(f"shape.{p}") != f"{m},{n}"
            or idx_entry[0] != "F64"
            or val_entry[0] != "F32"
            or float(metadata.get("k_percent", "nan")) != self.mask_k
        ):
            return [f"mask: {p} metadata or dtypes wrong"]
        raw_idx = np.asarray(idx_entry[1], np.float64).ravel()
        values = np.asarray(val_entry[1], np.float64).ravel()
        want = mask_count(self.mask_k, m * n)
        if raw_idx.size != want or values.size != want:
            return [f"mask: {p} keeps {raw_idx.size} coefficients, want {want}"]
        idx = raw_idx.astype(np.int64)
        if (
            np.any(idx != raw_idx)
            or idx[0] < 0
            or idx[-1] >= m * n
            or np.any(np.diff(idx) <= 0)
        ):
            return [f"mask: {p} indices not strictly increasing integers in range"]
        flat = ctx.coeffs.ravel()
        exact = flat[idx]
        tol = _F32_REL * np.abs(exact) + 1e-12 * math.sqrt(ctx.total)
        out = []
        if np.any(np.abs(values - exact) > tol):
            out.append(f"mask: {p} stored values differ from the spectrum beyond F32 rounding")
        retained = float(np.sum(exact * exact)) / ctx.total
        if abs(retained - ctx.fraction[want - 1]) > VALUE_TOL:
            out.append(f"mask: {p} kept energy {retained} is not the top-k energy {ctx.fraction[want - 1]}")
        return out

    def _decompress(self, ctx, doc) -> list[str]:
        _, tensors = doc
        p = ctx.prefix
        entry = tensors.get(f"{p}.delta_w")
        if entry is None or entry[0] != "F64" or tuple(entry[1].shape) != ctx.dw.shape:
            return [f"decompress: {p}.delta_w missing or mis-shaped"]
        m, n = ctx.dw.shape
        retained = float(ctx.fraction[mask_count(self.mask_k, m * n) - 1])
        diff = ctx.dw - entry[1]
        err = math.sqrt(float(np.sum(diff * diff)) / ctx.total)
        want = math.sqrt(max(0.0, 1.0 - retained))
        if abs(err - want) > 2.0**-24 * math.sqrt(retained) + VALUE_TOL:
            return [f"decompress: {p} relative error {err} vs sqrt(1 - retained) {want}"]
        return []

    def _sweep(self, ctx, doc) -> list[str]:
        out = []
        m, n = ctx.dw.shape
        for k in self.sweep_k:
            row = doc.rows.get((ctx.prefix, k))
            if row is None:
                out.append(f"sweep: no row for {ctx.prefix} k={k}")
                continue
            err, kept = row
            retained = float(ctx.fraction[mask_count(k, m * n) - 1])
            want = math.sqrt(max(0.0, 1.0 - retained))
            if (
                abs(kept - retained) > VALUE_TOL
                or abs(err - want) > VALUE_TOL
                or abs(err * err + kept - 1.0) > VALUE_TOL
            ):
                out.append(
                    f"sweep: {ctx.prefix} k={k} row ({err}, {kept}) breaks Parseval; "
                    f"oracle retained {retained}"
                )
        return out

    def _k90_pair(self, ctx):
        singular = np.linalg.svd(ctx.dw, compute_uv=False)
        s_frac = np.cumsum(singular * singular)
        s_frac /= s_frac[-1]
        return ctx.prefix, ctx.fraction.copy(), s_frac

    def _correlation(self, output, series) -> list[str]:
        code, path = output
        t = self.energy_target
        own = [
            (int(np.searchsorted(s, t)) + 1, int(np.searchsorted(d, t)) + 1)
            for _, d, s in series
        ]
        degenerate = len({c for c, _ in own}) < 2 or len({c for _, c in own}) < 2
        if degenerate:
            if code == DEGENERATE_EXIT and not Path(path).exists():
                return []
            return [f"correlate: constant k90 series needs exit {DEGENERATE_EXIT}, got {code}"]
        if code != 0:
            return [f"correlate: exit code {code}"]
        try:
            doc = json.loads(Path(path).read_text())
            reported = {p: (svd, dct) for p, svd, dct in doc["per_matrix"]}
            return self._statistics(doc, reported, series)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"correlate: unreadable output: {exc!r}"]

    def _statistics(self, doc, reported, series) -> list[str]:
        t = self.energy_target
        out = []
        xs, ys = [], []
        for prefix, d_frac, s_frac in series:
            if prefix not in reported:
                out.append(f"correlate: no row for {prefix}")
                continue
            svd_pct, dct_pct = reported[prefix]
            s_count = round(svd_pct * s_frac.size / 100.0)
            d_count = round(dct_pct * d_frac.size / 100.0)
            if not (
                brackets(s_frac, s_count, t)
                and _close(svd_pct, 100.0 * s_count / s_frac.size, 1e-12)
            ):
                out.append(f"correlate: {prefix} svd_k90 {svd_pct} misses the numpy SVD bracket")
            if not (
                brackets(d_frac, d_count, t)
                and _close(dct_pct, 100.0 * d_count / d_frac.size, 1e-12)
            ):
                out.append(f"correlate: {prefix} dct_k90 {dct_pct} misses the DCT bracket")
            xs.append(svd_pct)
            ys.append(dct_pct)
        if set(reported) != {p for p, _, _ in series} or doc["n"] != len(series):
            out.append("correlate: matrix set or n differs from the input")
        if out:
            return out
        pearson = stats.pearsonr(xs, ys)
        rho = stats.spearmanr(xs, ys).statistic
        if abs(doc["pearson"] - pearson.statistic) > VALUE_TOL:
            out.append(f"correlate: pearson {doc['pearson']} vs scipy {pearson.statistic}")
        if abs(doc["spearman"] - rho) > VALUE_TOL:
            out.append(f"correlate: spearman {doc['spearman']} vs scipy {rho}")
        if not _close(doc["p_value"], pearson.pvalue, 1e-6, 1e-300):
            out.append(f"correlate: p_value {doc['p_value']} vs scipy {pearson.pvalue}")
        return out


class _Matrix(NamedTuple):
    prefix: str
    dw: np.ndarray
    coeffs: np.ndarray
    fraction: np.ndarray  # cumulative energy fraction, coefficients sorted descending
    total: float


class _Rows(NamedTuple):
    """A keyed output file: its rows by key, and how many rows it had."""

    rows: dict
    count: int


def _load_outputs(paths: dict, problems: dict) -> dict:
    docs = {}
    for cmd, path in paths.items():
        try:
            if cmd == "analyze":
                report = json.loads((Path(path) / "report.json").read_text())
                rows = {row["prefix"]: row for row in report["per_matrix"]}
                docs[cmd] = _Rows(rows, len(report["per_matrix"]))
            elif cmd in ("mask", "decompress"):
                docs[cmd] = read_container(path)
            elif cmd == "sweep":
                with open(path, newline="") as fh:
                    reader = csv.reader(fh)
                    header = next(reader)
                    if header != ["matrix_prefix", "k", "relative_error", "retained_energy_fraction"]:
                        raise ValueError(f"unexpected header {header}")
                    raw = [(p, float(k), float(e), float(r)) for p, k, e, r in reader]
                rows = {(p, k): (e, r) for p, k, e, r in raw}
                docs[cmd] = _Rows(rows, len(raw))
        except (OSError, ValueError, KeyError, TypeError, struct.error) as exc:
            problems[cmd].append(f"{cmd}: unreadable output: {exc}")
    return docs


def _scale(metadata: dict) -> float:
    try:
        scale = float(metadata["alpha"]) / float(metadata["r"])
    except (KeyError, ValueError, ZeroDivisionError):
        return 1.0
    return scale if scale > 0.0 and math.isfinite(scale) else 1.0


def main(argv: list[str]) -> int:
    """Check outputs described by a JSON request; print problems and the kept count."""
    req = json.loads(argv[1])
    oracle = Oracle(req["input"], req["energy_target"], req["mask_k"], req["sweep_k"])
    problems = oracle.check({cmd: (code, Path(p)) for cmd, (code, p) in req["outputs"].items()})
    print(json.dumps({"problems": problems, "kept_coefficients": oracle.kept_coefficients()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
