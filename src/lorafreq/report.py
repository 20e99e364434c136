"""Report assembly shared by the CLI and the test suite.

Builders return plain dicts shaped exactly like the shipped JSON schemas
(schemas/analysis_report.schema.json, schemas/correlate_report.schema.json).
The per-matrix work of analyze, mask, sweep and correlate runs through
map_matrices, one thread pool whose results are yielded in input order, so
outputs are deterministic regardless of scheduling. The dense writer of
decompress and mask --emit dense (cli._write_dense) instead splits each
inverse over a pool of the same _workers size. analyze's and correlate's
workers each hold one m x n buffer per matrix: the factored spectrum,
squared, sorted and turned into its cumulative energy fraction in place,
from which only a count and at most 2048 curve points are kept.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np

from .analysis import EnergyCurve, _accumulate, _factored_energies, _summary
from .container import AdapterFile, LoraPair, pair_lora
from .errors import DegenerateInput, ZeroSpectrum
from .stats import _factored_svd_k90, svd_dct_correlate


@cache
def _tool_version() -> str:
    """The installed package's version, "0.0.0" when run from an unpacked
    tree. Looked up on first use: importing importlib.metadata costs every
    process 30-50 ms, and only the reports carry the version."""
    from importlib import metadata

    try:
        return metadata.version("lorafreq")
    except metadata.PackageNotFoundError:
        return "0.0.0"


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


def _workers(threads: int | None) -> int:
    """``threads``, or None for one per core this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return threads or (len(affinity(0)) if affinity else os.cpu_count() or 1)


def map_matrices(fn, items, threads: int | None):
    """Yield fn over items, in order, from one thread pool of
    ``_workers(threads)`` threads; every item is submitted at once, so no
    worker waits for the consumer.

    The zero-update rule of every command that reads factors: an item for
    which fn raises ZeroSpectrum is skipped with a warning naming its
    prefix, and ZeroSpectrum is raised when no item is left. Any other
    error, or a consumer that stops early, cancels every item not yet
    started; the pool still waits for the running ones.
    """
    pool = ThreadPoolExecutor(max_workers=_workers(threads))
    live = False
    try:
        window = deque((item, pool.submit(fn, item)) for item in items)
        while window:
            item, future = window.popleft()
            try:
                result = future.result()
            except ZeroSpectrum:
                print(f"warning: skipping zero update {item.prefix}", file=sys.stderr)
                continue
            finally:
                del future
            live = True
            yield result
            del result
    finally:
        pool.shutdown(cancel_futures=True)
    if not live:
        raise ZeroSpectrum("every update matrix in the input is zero")


def analysis_rows(
    pairs: tuple[LoraPair, ...], energy_target: float, threads: int | None
) -> list[tuple[dict, list[tuple[float, float]]]]:
    """(report row, thinned curve points) per pair, in order; zero rows flagged."""

    def one(pair: LoraPair) -> tuple[dict, list[tuple[float, float]]]:
        fraction = _factored_energies(pair.b_matrix, pair.a_matrix, pair.scale)
        total = _accumulate(fraction)
        row = {
            "prefix": pair.prefix,
            "layer_index": pair.layer_index,
            "module_kind": pair.module_kind,
            "shape": list(pair.out_shape),
            "k90_percent": None,
            "coeff_count_90": None,
            "total_energy": total,
            "zero_flag": total == 0.0,
        }
        if total == 0.0:
            return row, []
        summary = _summary(fraction, total, energy_target)
        row["k90_percent"] = summary.k90_percent
        row["coeff_count_90"] = summary.coeff_count_90
        return row, _fraction_points(fraction)

    return list(map_matrices(one, pairs, threads))


def analysis_report(
    input_path: str,
    pairs: tuple[LoraPair, ...],
    rows_and_curves: list[tuple[dict, object]],
    scale_applied: float,
) -> dict:
    """The analysis report; only the row of each (row, curve) pair is read.

    The heatmap groups the non-zero rows' k90 by the layer and module kind
    of each row's pair: one cell per group, its mean and count, in numeric
    layer order with "unindexed" last, then by kind.
    """
    rows = [row for row, _ in rows_and_curves]
    live = [row["k90_percent"] for row in rows if not row["zero_flag"]]
    aggregate = {
        "mean_k90": sum(live) / len(live) if live else None,
        "min": min(live) if live else None,
        "max": max(live) if live else None,
        "matrix_count": len(rows),
    }
    groups: dict[tuple[int | None, str], list[float]] = {}
    for row, pair in zip(rows, pairs):
        if not row["zero_flag"]:
            key = (pair.layer_index, pair.module_kind)
            groups.setdefault(key, []).append(row["k90_percent"])

    def position(group):
        (index, kind), _ = group
        return index is None, index or 0, kind

    cells = [
        {
            "layer": "unindexed" if index is None else str(index),
            "module_kind": kind,
            "mean_k90": sum(values) / len(values),
            "count": len(values),
        }
        for (index, kind), values in sorted(groups.items(), key=position)
    ]
    heatmap = {
        "layers": list(dict.fromkeys(cell["layer"] for cell in cells)),
        "module_kinds": sorted({cell["module_kind"] for cell in cells}),
        "cells": cells,
    }
    return {
        "tool_version": _tool_version(),
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
    return [] if curve.is_zero else _fraction_points(curve.cumulative_fraction)


def _fraction_points(fraction: np.ndarray) -> list[tuple[float, float]]:
    """curve_points of a cumulative fraction over all coefficients."""
    count = fraction.size
    if count > _CURVE_FULL_LIMIT:
        ranks = np.unique(
            np.round(np.linspace(1, count, num=_CURVE_POINTS)).astype(np.int64)
        )
    else:
        ranks = np.arange(1, count + 1, dtype=np.int64)
    return [
        (100.0 * int(rank) / count, float(fraction[rank - 1]))
        for rank in ranks
    ]


def correlate_report(
    input_path: str,
    pairs: tuple[LoraPair, ...],
    scale_applied: float,
    threads: int | None,
) -> dict:
    """SVD-vs-DCT k90 correlation across a container's non-zero matrices.

    Both sides work on each pair's factors, never on the m x n update: the
    DCT side sorts and accumulates the factored spectrum in its own buffer,
    and the SVD side (stats._factored_svd_k90) decomposes an r x r core.
    """

    def one(pair: LoraPair) -> tuple[str, float, float]:
        # The DCT side first, so its energy alone decides a zero update.
        fraction = _factored_energies(pair.b_matrix, pair.a_matrix, pair.scale)
        dct_value = _summary(fraction, _accumulate(fraction)).k90_percent
        svd_value = _factored_svd_k90(pair.b_matrix, pair.a_matrix)
        return pair.prefix, svd_value, dct_value

    rows = list(map_matrices(one, pairs, threads))
    if len(rows) < 4:
        raise DegenerateInput(
            f"correlation needs at least 4 non-zero matrices, have {len(rows)}"
        )
    result = svd_dct_correlate([(svd, dct) for _, svd, dct in rows])
    return {
        "tool_version": _tool_version(),
        "input_path": input_path,
        "scale_applied": float(scale_applied),
        "per_matrix": [[prefix, svd, dct] for prefix, svd, dct in rows],
        "pearson": result.pearson_r,
        "spearman": result.spearman_rho,
        "p_value": result.p_value_pearson,
        "n": result.n,
    }
