"""Report assembly shared by the CLI and the test suite.

Builders return plain dicts shaped exactly like the shipped JSON schemas
(schemas/analysis_report.schema.json, schemas/correlate_report.schema.json).
Every command's per-matrix work runs through map_matrices, one thread pool
whose results keep input order, so outputs are deterministic regardless of
scheduling.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata

import numpy as np

from .analysis import (
    EnergyCurve,
    SpectralSummary,
    dct_k90,
    energy_curve,
    k_for_energy,
    layer_heatmap,
)
from .container import AdapterFile, LoraPair, merge_delta, pair_lora
from .dct import dct2
from .errors import DegenerateInput, ZeroSpectrum
from .stats import _factored_svd_k90, svd_dct_correlate

try:
    TOOL_VERSION = metadata.version("lorafreq")
except metadata.PackageNotFoundError:  # running from an unpacked tree
    TOOL_VERSION = "0.0.0"

# Curves over this many coefficients are thinned to at most _CURVE_POINTS
# evenly spaced ranks; below it every rank is emitted.
_CURVE_FULL_LIMIT = 4096
_CURVE_POINTS = 2048


def effective_pairs(file: AdapterFile, scale_override: float | None = None):
    """Pairs from a container, optionally re-scaled by a uniform override."""
    result = pair_lora(file)
    pairs = result.pairs
    if scale_override is not None:
        pairs = tuple(
            dataclasses.replace(p, scale=float(scale_override)) for p in pairs
        )
    return pairs, result.orphans


def map_matrices(fn, items, threads: int | None) -> list:
    """fn over items on one thread pool (None: one thread per core), in order.

    The zero-update rule of every command: an item for which fn raises
    ZeroSpectrum is skipped with a warning naming its prefix (decompress's
    fn never raises it), and ZeroSpectrum is raised when no item is left.
    """
    with ThreadPoolExecutor(max_workers=threads or os.cpu_count()) as pool:
        futures = [pool.submit(fn, item) for item in items]
    live = []
    for item, future in zip(items, futures):
        try:
            live.append(future.result())
        except ZeroSpectrum:
            print(f"warning: skipping zero update {item.prefix}", file=sys.stderr)
    if not live:
        raise ZeroSpectrum("every update matrix in the input is zero")
    return live


def analysis_rows(
    pairs: tuple[LoraPair, ...], energy_target: float, threads: int | None
) -> list[tuple[dict, EnergyCurve]]:
    """(report row, energy curve) per pair, in pair order; zero rows flagged."""

    def one(pair: LoraPair) -> tuple[dict, EnergyCurve]:
        curve = energy_curve(dct2(merge_delta(pair)))
        row = {
            "prefix": pair.prefix,
            "layer_index": pair.layer_index,
            "module_kind": pair.module_kind,
            "shape": list(pair.out_shape),
            "k90_percent": None,
            "coeff_count_90": None,
            "total_energy": curve.total_energy,
            "zero_flag": curve.is_zero,
        }
        if not curve.is_zero:
            summary = k_for_energy(curve, energy_target)
            row["k90_percent"] = summary.k90_percent
            row["coeff_count_90"] = summary.coeff_count_90
        return row, curve

    return map_matrices(one, pairs, threads)


def analysis_report(
    input_path: str,
    pairs: tuple[LoraPair, ...],
    rows_and_curves: list[tuple[dict, EnergyCurve]],
    scale_applied: float,
) -> dict:
    rows = [row for row, _ in rows_and_curves]
    live = [row["k90_percent"] for row in rows if not row["zero_flag"]]
    aggregate = {
        "mean_k90": sum(live) / len(live) if live else None,
        "min": min(live) if live else None,
        "max": max(live) if live else None,
        "matrix_count": len(rows),
    }
    summaries = [
        SpectralSummary(
            k90_percent=row["k90_percent"],
            coeff_count_90=row["coeff_count_90"],
            total_energy=row["total_energy"],
            layer_index=pair.layer_index,
            module_kind=pair.module_kind,
        )
        for row, pair in zip(rows, pairs)
        if not row["zero_flag"]
    ]
    table = layer_heatmap(summaries)
    heatmap = {
        "layers": list(table.layers),
        "module_kinds": list(table.module_kinds),
        "cells": [
            {
                "layer": c.layer,
                "module_kind": c.module_kind,
                "mean_k90": c.mean_k90,
                "count": c.count,
            }
            for c in table.cells
        ],
    }
    return {
        "tool_version": TOOL_VERSION,
        "input_path": input_path,
        "scale_applied": float(scale_applied),
        "per_matrix": rows,
        "aggregate": aggregate,
        "heatmap": heatmap,
    }


def curve_points(curve: EnergyCurve) -> list[tuple[float, float]]:
    """(coefficient_rank_percent, cumulative_fraction) plot rows.

    Dense spectra are thinned to evenly spaced ranks so curve files stay
    bounded; the first and last rank always survive thinning.
    """
    if curve.is_zero:
        return []
    count = curve.coefficient_count
    if count > _CURVE_FULL_LIMIT:
        ranks = np.unique(
            np.round(np.linspace(1, count, num=_CURVE_POINTS)).astype(np.int64)
        )
    else:
        ranks = np.arange(1, count + 1, dtype=np.int64)
    return [
        (100.0 * int(rank) / count, float(curve.cumulative_fraction[rank - 1]))
        for rank in ranks
    ]


def correlate_report(
    input_path: str,
    pairs: tuple[LoraPair, ...],
    scale_applied: float,
    threads: int | None,
) -> dict:
    """SVD-vs-DCT k90 correlation across a container's non-zero matrices.

    The SVD side works on each pair's factors (stats._factored_svd_k90), so
    its Jacobi sees an r x r core rather than the m x n update.
    """

    def one(pair: LoraPair) -> tuple[str, float, float]:
        # The DCT side first, so its energy alone decides a zero update.
        dct_value = dct_k90(merge_delta(pair)).k90_percent
        svd_value = _factored_svd_k90(pair.b_matrix, pair.a_matrix)
        return pair.prefix, svd_value, dct_value

    rows = map_matrices(one, pairs, threads)
    if len(rows) < 4:
        raise DegenerateInput(
            f"correlation needs at least 4 non-zero matrices, have {len(rows)}"
        )
    result = svd_dct_correlate([(svd, dct) for _, svd, dct in rows])
    return {
        "tool_version": TOOL_VERSION,
        "input_path": input_path,
        "scale_applied": float(scale_applied),
        "per_matrix": [[prefix, svd, dct] for prefix, svd, dct in rows],
        "pearson": result.pearson_r,
        "spearman": result.spearman_rho,
        "p_value": result.p_value_pearson,
        "n": result.n,
    }
