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

mask holds no m x n array: ``_select`` picks the top k% in three passes
over flat blocks of the spectrum's rows: for the command, the ~1 MB row
chunks of ``dct._factored_rows``, one reused scratch chunk per matrix; for
``topk_mask``, copied row blocks. The first pass counts |F| into buckets keyed
by the top bits of its binary64 pattern, which order non-negative floats
and flag every non-finite entry; the second finds the cut among the
entries of the bucket that holds the k-th largest |F|; the third gathers
the entries the cut keeps.
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
    """Running fraction of the squared coefficients sorted descending, and
    their total.

    For an all-zero spectrum, total_energy is 0 and cumulative_fraction is
    empty; callers treat that as a ZeroSpectrum flag rather than dividing.
    """

    cumulative_fraction: np.ndarray
    total_energy: float

    @property
    def is_zero(self) -> bool:
        return self.total_energy == 0.0


@dataclass(frozen=True)
class SpectralSummary:
    """k90-style statistic for one matrix."""

    k90_percent: float
    coeff_count_90: int
    total_energy: float


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


def energy_curve(f: Spectrum) -> EnergyCurve:
    """Square, sort descending and accumulate, in one copy of the spectrum."""
    fraction = _descending_energies(np.array(f.coefficients.data))
    total = _accumulate(fraction)
    if total == 0.0:
        fraction = np.empty(0)
    fraction.setflags(write=False)
    return EnergyCurve(cumulative_fraction=fraction, total_energy=total)


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

    Every coefficient above the k_count-th largest |F| is kept, and equal
    ones fill the remaining slots in ascending flat-index order, so masks
    are nested across k and deterministic across platforms. The selection
    reads copied row blocks of the spectrum (``_select``); only the energy
    total reads it whole. A zero-energy spectrum has nothing to select and
    raises ZeroSpectrum.
    """
    if not 0.0 < k_percent <= 100.0:
        raise ValueError(f"k_percent must be in (0, 100], got {k_percent}")
    coeffs = f.coefficients.array
    total_count = coeffs.size
    k_count = mask_count(k_percent, total_count)

    def blocks():
        for start, stop in dct._row_spans(*coeffs.shape):
            yield coeffs[start:stop].flatten()

    chosen, values = _select(blocks, k_count)
    if k_count == total_count:
        fraction = 1.0
    else:
        fraction = float(np.sum(values**2)) / float(np.sum(f.coefficients.data**2))
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


def _factored_selection(
    b: Matrix, a: Matrix, scale: float, k_percent: float
) -> tuple[np.ndarray, np.ndarray]:
    """topk_mask's indices and values for the spectrum of scale * (b @ a),
    from its row chunks; no m x n array is made."""
    size = b.shape[0] * a.shape[1]
    return _select(dct._factored_rows(b, a, scale), mask_count(k_percent, size))


# |F|'s binary64 pattern shifted right by _KEY_SHIFT keeps its exponent and
# three mantissa bits: 2**14 buckets in the order of the values, of which
# those from _KEY_NON_FINITE on hold inf and nan.
_KEY_SHIFT = 49
_KEY_COUNT = 1 << 14
_KEY_NON_FINITE = 0x7FF << 3


def _select(blocks, k_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices, ascending, and values of the k_count largest |F|, ties
    taken in flat-index order.

    ``blocks()`` yields the spectrum's flat row blocks in flat-index order,
    each writable and valid only until the next is taken, since a block may
    reuse the last one's memory; it is called once per pass. Pass 1
    counts |F| per bucket, pass 2 finds the cut (the k_count-th largest |F|)
    among the entries of its bucket alone, and pass 3 keeps every |F| above
    the cut and the first ties at it. Raises ContainerError for a
    non-finite entry and ZeroSpectrum when every F**2 is 0.
    """
    counts = np.zeros(_KEY_COUNT, dtype=np.int64)
    largest = 0.0
    for block in blocks():
        np.abs(block, out=block)
        largest = max(largest, float(block.max()))
        keys = block.view(np.uint64)
        keys >>= _KEY_SHIFT
        counts += np.bincount(keys.view(np.int64), minlength=_KEY_COUNT)
    if counts[_KEY_NON_FINITE:].any():
        raise ContainerError(
            "spectral coefficients are not finite: the update overflows"
        )
    if largest * largest == 0.0:
        raise ZeroSpectrum("zero-energy spectrum has no top-k selection")
    at_or_above = np.cumsum(counts[::-1])[::-1]
    bucket = int(np.searchsorted(-at_or_above, -k_count, side="right")) - 1
    edges = np.array([bucket, bucket + 1], dtype=np.uint64) << _KEY_SHIFT
    low, high = edges.view(np.float64)

    inside = np.empty(int(counts[bucket]))
    start = 0
    for block in blocks():
        np.abs(block, out=block)
        hits = block[(block >= low) & (block < high)]
        inside[start : start + hits.size] = hits
        start += hits.size
    kth = int(at_or_above[bucket]) - k_count
    inside.partition(kth)
    cut = inside[kth]
    ties = k_count - int(at_or_above[bucket + 1])
    ties -= int(np.count_nonzero(inside[kth + 1 :] > cut))
    del inside

    indices = np.empty(k_count, dtype=np.int64)
    values = np.empty(k_count)
    start = offset = 0
    for block in blocks():
        keep = block > cut
        keep |= block < -cut
        if ties:
            tied = np.flatnonzero((block == cut) | (block == -cut))[:ties]
            keep[tied] = True
            ties -= tied.size
        hits = np.flatnonzero(keep)
        stop = start + hits.size
        np.add(hits, offset, out=indices[start:stop])
        np.take(block, hits, out=values[start:stop])
        start, offset = stop, offset + block.size
    if start != k_count:
        raise RuntimeError("the spectrum's row blocks changed between passes")
    return indices, values


def mask_count(k_percent: float, total_count: int) -> int:
    """Exact retained-coefficient count for a k% mask."""
    raw = math.ceil(k_percent * total_count / 100.0 - _CEIL_EPS)
    return max(1, min(total_count, raw))


def reconstruct(f: Spectrum, mask: MaskResult) -> Matrix:
    """Zero all non-retained coefficients and invert the transform. The
    indices may come in any order, but each must lie in the spectrum, occur
    once and have one value, and k_count must be their number."""
    m, n = f.coefficients.shape
    indices, values = mask.retained_flat_indices, mask.retained_values
    if (
        indices.shape != values.shape
        or mask.k_count != indices.size
        or (indices.size and not 0 <= indices.min() <= indices.max() < m * n)
        or np.unique(indices).size != indices.size
    ):
        raise ShapeMismatch(
            f"mask of {indices.size} indices and {values.size} values does not "
            f"fit the {m}x{n} spectrum it is applied to"
        )
    return scatter_idct2((m, n), indices, values)


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
