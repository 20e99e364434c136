"""Spectral energy analysis: curves, k90, top-k masking, error sweeps.

Everything operates on the orthonormal DCT-II spectrum, where squared
coefficients are energies and Parseval ties masking error to dropped
energy exactly: ||dW - dW_k||_F^2 is the sum of the squared coefficients
the mask leaves out. The curve and the sweep both read one descending
buffer of squared coefficients, sorted once per matrix; a sweep takes every
k from that buffer, and the curve is that buffer's running sum, taken in
place.

analyze, sweep and correlate hold one m x n buffer per matrix: the factored
product of ``dct._factored_product``, squared, sorted and accumulated where
it lies (``_factored_energies``, ``_accumulate``). The public functions copy
the spectrum once and run the same steps on the copy. The product is not
checked entry by entry as a Matrix would be; a finite total of F**2 stands
in for that check, since it means every entry is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dct
from .dct import Spectrum, dct2, scatter_idct2
from .errors import ContainerError, ShapeMismatch, ZeroSpectrum
from .linalg import Matrix

# Guard against float drift when k*m*n/100 is mathematically an integer.
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class EnergyCurve:
    """Squared coefficients sorted descending, plus their running fraction.

    For an all-zero spectrum, total_energy is 0 and cumulative_fraction is
    empty; callers treat that as a ZeroSpectrum flag rather than dividing.
    """

    sorted_energies: np.ndarray
    cumulative_fraction: np.ndarray
    total_energy: float

    @property
    def is_zero(self) -> bool:
        return self.total_energy == 0.0

    @property
    def coefficient_count(self) -> int:
        return int(self.sorted_energies.size)


@dataclass(frozen=True)
class SpectralSummary:
    """k90-style statistic for one matrix."""

    k90_percent: float
    coeff_count_90: int
    total_energy: float
    layer_index: int | None = None
    module_kind: str = ""


@dataclass(frozen=True)
class MaskResult:
    """Top-k%-by-magnitude coefficient selection."""

    retained_flat_indices: np.ndarray  # sorted ascending
    retained_values: np.ndarray
    retained_energy_fraction: float
    k_percent_requested: float
    k_count: int


@dataclass(frozen=True)
class SweepPoint:
    k_percent: float
    relative_error: float
    retained_energy_fraction: float
    k_count: int


@dataclass(frozen=True)
class HeatmapCell:
    layer: str  # decimal layer index, or "unindexed"
    module_kind: str
    mean_k90: float
    count: int


@dataclass(frozen=True)
class HeatmapTable:
    """Dense (layer, module_kind) grid; cells holds only the present entries."""

    layers: tuple[str, ...]
    module_kinds: tuple[str, ...]
    cells: tuple[HeatmapCell, ...]

    def cell(self, layer: str, module_kind: str) -> HeatmapCell | None:
        for c in self.cells:
            if c.layer == layer and c.module_kind == module_kind:
                return c
        return None


def energy_curve(f: Spectrum) -> EnergyCurve:
    """Square, sort descending, accumulate."""
    energies = _descending_energies(np.array(f.coefficients.data))
    fraction = energies.copy()
    total = _accumulate(fraction)
    if total == 0.0:
        fraction = np.empty(0)
    energies.setflags(write=False)
    fraction.setflags(write=False)
    return EnergyCurve(
        sorted_energies=energies, cumulative_fraction=fraction, total_energy=total
    )


def _factored_energies(b: Matrix, a: Matrix, scale: float) -> np.ndarray:
    """F**2 of the spectrum of scale * (b @ a), sorted descending in the
    product's own flat buffer, with no copy of it."""
    return _descending_energies(dct._factored_product(b, a, scale).reshape(-1))


def _descending_energies(buffer: np.ndarray) -> np.ndarray:
    """Square a writable flat array and sort it descending, in place.

    The squares are negated, sorted ascending and negated back; negation is
    exact, so no second m*n array is made.
    """
    np.square(buffer, out=buffer)
    np.negative(buffer, out=buffer)
    buffer.sort()
    np.negative(buffer, out=buffer)
    return buffer


def _accumulate(energies: np.ndarray) -> float:
    """Turn descending energies into their cumulative fraction in place and
    return the total; an all-zero buffer is left as running sums of 0.

    np.cumsum with out= is sequential, so it equals np.cumsum bit for bit.
    """
    np.cumsum(energies, out=energies)
    total = _finite(float(energies[-1]))
    if total != 0.0:
        energies /= total
    return total


def _finite(total: float) -> float:
    """The total energy, if finite; a finite sum of F**2 means every entry of
    F is finite, and LoraPair's norm cap keeps a valid update's sum finite."""
    if not math.isfinite(total):
        raise ContainerError("spectral energy is not finite: the update overflows")
    return total


def k_for_energy(curve: EnergyCurve, target_fraction: float = 0.9) -> SpectralSummary:
    """Smallest coefficient count whose energy reaches the target fraction."""
    return _summary(curve.cumulative_fraction, curve.total_energy, target_fraction)


def _summary(
    fraction: np.ndarray, total: float, target_fraction: float = 0.9
) -> SpectralSummary:
    """k_for_energy of a cumulative fraction over all coefficients."""
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError(f"target_fraction must be in (0, 1], got {target_fraction}")
    if total == 0.0:
        raise ZeroSpectrum("all-zero spectrum has no energy threshold")
    count = int(np.searchsorted(fraction, target_fraction)) + 1
    return SpectralSummary(
        k90_percent=100.0 * count / fraction.size,
        coeff_count_90=count,
        total_energy=total,
    )


def topk_mask(f: Spectrum, k_percent: float) -> MaskResult:
    """Retain the k_count = max(1, ceil(k% of m*n)) largest-|F| coefficients.

    A partition finds the k_count-th largest |F|; every larger coefficient is
    kept, and equal ones fill the remaining slots in ascending flat-index
    order, so masks are nested across k and deterministic across platforms.
    A zero-energy spectrum has nothing to select and raises ZeroSpectrum.
    """
    if not 0.0 < k_percent <= 100.0:
        raise ValueError(f"k_percent must be in (0, 100], got {k_percent}")
    flat = f.coefficients.data
    total = float(np.sum(flat**2))
    if total == 0.0:
        raise ZeroSpectrum("zero-energy spectrum has no top-k selection")
    total_count = flat.size
    k_count = mask_count(k_percent, total_count)

    magnitude = np.abs(flat)
    cut = np.partition(magnitude, total_count - k_count)[total_count - k_count]
    keep = magnitude > cut
    tied = np.flatnonzero(magnitude == cut)
    # Free the m*n buffer before the kept indices and values are allocated,
    # so a worker thread's heap can shrink once its spectrum is released.
    del magnitude
    keep[tied[: k_count - int(np.count_nonzero(keep))]] = True
    chosen = np.flatnonzero(keep).astype(np.int64, copy=False)
    values = flat[chosen]

    if k_count == total_count:
        fraction = 1.0
    else:
        fraction = float(np.sum(values**2)) / total
        fraction = min(1.0, max(0.0, fraction))
    chosen.setflags(write=False)
    values.setflags(write=False)
    return MaskResult(
        retained_flat_indices=chosen,
        retained_values=values,
        retained_energy_fraction=fraction,
        k_percent_requested=float(k_percent),
        k_count=k_count,
    )


def mask_count(k_percent: float, total_count: int) -> int:
    """Exact retained-coefficient count for a k% mask."""
    raw = math.ceil(k_percent * total_count / 100.0 - _CEIL_EPS)
    return max(1, min(total_count, raw))


def reconstruct(f: Spectrum, mask: MaskResult) -> Matrix:
    """Zero all non-retained coefficients and invert the transform."""
    m, n = f.coefficients.shape
    if mask.k_count > m * n or (
        mask.retained_flat_indices.size
        and int(mask.retained_flat_indices[-1]) >= m * n
    ):
        raise ShapeMismatch(
            f"mask indexes beyond the {m}x{n} spectrum it is applied to"
        )
    return scatter_idct2((m, n), mask.retained_flat_indices, mask.retained_values)


def sweep(x: Matrix | Spectrum, k_values: list[float]) -> list[SweepPoint]:
    """Mask metrics for each k of one spectrum; a merged update is transformed.

    One descending sort of F**2 serves every k: tied |F| have equal energy,
    so the top-k_count energy is the sorted prefix whichever tie a mask
    keeps. By Parseval the relative reconstruction error is
    sqrt(dropped / total), where dropped sums the sorted suffix; no mask is
    built and no inverse transform is run. Every sum is numpy's pairwise sum.
    """
    f = x if isinstance(x, Spectrum) else dct2(x)
    return _sweep_points(_descending_energies(np.array(f.coefficients.data)), k_values)


def _sweep_points(energies: np.ndarray, k_values: list[float]) -> list[SweepPoint]:
    """sweep's points from F**2 sorted descending; the buffer is only read."""
    for k in k_values:
        if not 0.0 < k <= 100.0:
            raise ValueError(f"k values must be in (0, 100], got {k}")
    total = _finite(float(np.sum(energies)))
    if k_values and total == 0.0:
        raise ZeroSpectrum("zero-energy spectrum has no top-k selection")
    size = energies.size
    points = []
    for k in k_values:
        k_count = mask_count(k, size)
        if k_count == size:
            fraction = 1.0
        else:
            fraction = float(np.sum(energies[:k_count])) / total
            fraction = min(1.0, max(0.0, fraction))
        points.append(
            SweepPoint(
                k_percent=float(k),
                relative_error=math.sqrt(float(np.sum(energies[k_count:])) / total),
                retained_energy_fraction=fraction,
                k_count=k_count,
            )
        )
    return points


def dct_k90(delta: Matrix, target_fraction: float = 0.9) -> SpectralSummary:
    """k90 of a merged update: dct2 -> energy curve -> threshold count."""
    return k_for_energy(energy_curve(dct2(delta)), target_fraction)


def layer_heatmap(summaries: list[SpectralSummary]) -> HeatmapTable:
    """Group k90 values by (layer, module kind); duplicates are averaged."""
    buckets: dict[tuple[str, str], list[float]] = {}
    for s in summaries:
        layer = "unindexed" if s.layer_index is None else str(s.layer_index)
        buckets.setdefault((layer, s.module_kind), []).append(s.k90_percent)

    layer_labels = {layer for layer, _ in buckets}
    indexed = sorted((lb for lb in layer_labels if lb != "unindexed"), key=int)
    layers = tuple(indexed) + (("unindexed",) if "unindexed" in layer_labels else ())
    kinds = tuple(sorted({kind for _, kind in buckets}))

    cells = []
    for layer in layers:
        for kind in kinds:
            values = buckets.get((layer, kind))
            if values is None:
                continue
            cells.append(
                HeatmapCell(
                    layer=layer,
                    module_kind=kind,
                    mean_k90=sum(values) / len(values),
                    count=len(values),
                )
            )
    return HeatmapTable(layers=layers, module_kinds=kinds, cells=tuple(cells))
