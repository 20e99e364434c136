"""Sparse spectral storage and the storage-accounting report.

A masked spectrum is stored as two tensors inside the standard container:
"<name>.spectral_indices", a 1 x c F64 tensor of exact integers (lossless
for any index < 2^53), and "<name>.spectral_values", a 1 x c F32 tensor;
any other dtype tag is CorruptSparse. File metadata marks the layout: format
"spectral-sparse-v1", transform "dct2-ortho-v1" (the only one, so a
SparseSpectrum does not carry it), the uniform k_percent, and one
"shape.<name>" entry per spectrum.

Every SparseSpectrum checks its invariants when it is made, so any instance,
however built, can be scattered and inverted as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import MaskResult
from .container import AdapterFile, TensorRecord
from .dct import Spectrum, scatter_idct2
from .errors import (
    ContainerError,
    CorruptSparse,
    InvalidSpec,
    NotSpectralFile,
)
from .linalg import Matrix

FORMAT_TAG = "spectral-sparse-v1"
TRANSFORM_TAG = "dct2-ortho-v1"
_INDICES_SUFFIX = ".spectral_indices"
_VALUES_SUFFIX = ".spectral_values"


@dataclass(frozen=True)
class SparseSpectrum:
    """Retained coefficients of one masked spectrum.

    Invariants, checked on construction (CorruptSparse otherwise), so every
    instance holds them: a positive shape, flat_indices non-empty, the same
    length as values, strictly increasing, in [0, m*n) and below 2^32. Both
    arrays are then set read-only.
    """

    name: str
    shape: tuple[int, int]
    flat_indices: np.ndarray  # int64 holding u32-range values
    values: np.ndarray  # float32
    k_percent: float

    def __post_init__(self):
        m, n = self.shape
        indices = self.flat_indices
        if m < 1 or n < 1:
            raise CorruptSparse(f"spectrum {self.name!r}: bad shape {self.shape}")
        if indices.size == 0:
            raise CorruptSparse(f"spectrum {self.name!r}: empty index list")
        if indices.size != self.values.size:
            raise CorruptSparse(
                f"spectrum {self.name!r}: {indices.size} indices vs "
                f"{self.values.size} values"
            )
        if int(indices[0]) < 0 or int(indices[-1]) >= m * n:
            raise CorruptSparse(f"spectrum {self.name!r}: index out of range")
        if not np.all(indices[1:] > indices[:-1]):
            raise CorruptSparse(
                f"spectrum {self.name!r}: indices must be strictly increasing"
            )
        if int(indices[-1]) >= 2**32:
            raise CorruptSparse(f"spectrum {self.name!r}: index exceeds 32-bit range")
        indices.setflags(write=False)
        self.values.setflags(write=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseSpectrum):
            return NotImplemented
        return (
            self.name == other.name
            and self.shape == other.shape
            and np.array_equal(self.flat_indices, other.flat_indices)
            and np.array_equal(self.values, other.values)
            and self.k_percent == other.k_percent
        )


@dataclass(frozen=True)
class StorageReport:
    """Both storage accountings for one compression run.

    nominal_*: k% of the base parameter count, the headline budget figure.
    coeff_*: the literal retained-coefficient cost, one binary32 value plus
    one 32-bit index per coefficient, in 4-byte parameter-equivalent units.
    """

    base_param_count: int
    k_percent: float
    nominal_stored: int
    nominal_reduction: float
    coeff_value_count: int
    coeff_total_units: int
    coeff_reduction: float
    exceeds_base: bool


def encode_sparse(name: str, f: Spectrum, mask: MaskResult) -> SparseSpectrum:
    """Capture a mask's retained (index, value) pairs, values as binary32.

    A value outside binary32 range would be cast to inf, which
    unpack_sparse_file rejects, so it raises ContainerError instead.
    """
    indices = np.asarray(mask.retained_flat_indices)
    if indices.dtype != np.int64 or indices.flags.writeable:
        indices = indices.astype(np.int64)
    shape, values = f.coefficients.shape, mask.retained_values
    return _sparse(name, shape, indices, values, mask.k_percent_requested)


def _sparse(
    name: str,
    shape: tuple[int, int],
    indices: np.ndarray,
    values: np.ndarray,
    k_percent: float,
) -> SparseSpectrum:
    """encode_sparse of a selection; the int64 ``indices`` are taken over,
    not copied, and ``values`` are only read."""
    if not _fits_binary32(values):
        raise ContainerError(
            f"{name}: retained DCT coefficients exceed binary32 range, "
            "so the sparse file cannot store them"
        )
    return SparseSpectrum(
        name=name,
        shape=shape,
        flat_indices=indices,
        values=np.array(values, dtype=np.float32),
        k_percent=float(k_percent),
    )


def decode_sparse(s: SparseSpectrum) -> Matrix:
    """Scatter retained values into a zero spectrum and invert."""
    return scatter_idct2(s.shape, s.flat_indices, s.values)


def pack_sparse_file(spectra: list[SparseSpectrum]) -> AdapterFile:
    """Lay spectra out as index/value tensor pairs in one container; the
    values go in as they are, the indices as one binary64 copy."""
    if not spectra:
        raise InvalidSpec("cannot pack an empty spectrum list")
    k_values = {s.k_percent for s in spectra}
    if len(k_values) > 1:
        raise InvalidSpec(
            f"all spectra in one file must share k_percent, got {sorted(k_values)}"
        )

    metadata = {
        "format": FORMAT_TAG,
        "transform": TRANSFORM_TAG,
        "k_percent": repr(float(spectra[0].k_percent)),
    }

    tensors = []
    for s in spectra:
        count = int(s.flat_indices.size)
        tensors.append(
            TensorRecord(s.name + _INDICES_SUFFIX, "F64", (1, count), s.flat_indices)
        )
        tensors.append(
            TensorRecord(s.name + _VALUES_SUFFIX, "F32", (1, count), s.values)
        )
        metadata[f"shape.{s.name}"] = f"{s.shape[0]},{s.shape[1]}"
    return AdapterFile(tensors=tuple(tensors), metadata=metadata)


def unpack_sparse_file(file: AdapterFile) -> list[SparseSpectrum]:
    """Inverse of pack_sparse_file; each spectrum owns its arrays, one copy
    each, so none holds a view of the file's bytes."""
    for key, tag in (("format", FORMAT_TAG), ("transform", TRANSFORM_TAG)):
        value = file.metadata.get(key)
        if value is None:
            raise NotSpectralFile(f"missing {key!r} metadata key")
        if value != tag:
            raise NotSpectralFile(f"unsupported {key} {value!r}")
    try:
        k_percent = float(file.metadata["k_percent"])
    except (KeyError, ValueError) as exc:
        raise CorruptSparse(f"bad or missing k_percent metadata: {exc}") from exc
    if not 0.0 < k_percent <= 100.0:  # also rejects NaN
        raise CorruptSparse(f"k_percent metadata {k_percent} is outside (0, 100]")

    by_base: dict[str, dict[str, TensorRecord]] = {}
    for t in file.tensors:
        if t.name.endswith(_INDICES_SUFFIX):
            base, part = t.name[: -len(_INDICES_SUFFIX)], "indices"
        elif t.name.endswith(_VALUES_SUFFIX):
            base, part = t.name[: -len(_VALUES_SUFFIX)], "values"
        else:
            raise CorruptSparse(f"unexpected tensor {t.name!r} in sparse file")
        by_base.setdefault(base, {})[part] = t

    spectra = []
    for base, parts in by_base.items():
        if set(parts) != {"indices", "values"}:
            raise CorruptSparse(f"spectrum {base!r} is missing a tensor half")
        shape = _parse_shape(file.metadata, base)
        idx_t, val_t = parts["indices"], parts["values"]
        for t, tag in ((idx_t, "F64"), (val_t, "F32")):
            if t.dtype != tag or len(t.shape) != 2 or t.shape[0] != 1:
                raise CorruptSparse(
                    f"tensor {t.name!r} must be 1xc {tag}, is {t.shape} {t.dtype}"
                )
        # Checked before the int64 cast, in which an out-of-range float
        # wraps. NaN fails every comparison.
        raw_idx, raw_val = idx_t.data, val_t.data
        valid = (raw_idx >= 0) & (raw_idx < 2**32) & (raw_idx == np.floor(raw_idx))
        if not valid.all():
            raise CorruptSparse(
                f"spectrum {base!r} has indices that are not integers in [0, 2^32)"
            )
        if not _fits_binary32(raw_val):
            raise CorruptSparse(
                f"spectrum {base!r} has values that are non-finite or "
                "outside binary32 range"
            )
        s = SparseSpectrum(
            name=base,
            shape=shape,
            flat_indices=raw_idx.astype(np.int64),
            values=raw_val.astype(np.float32),
            k_percent=k_percent,
        )
        spectra.append(s)
    if not spectra:
        raise CorruptSparse("sparse file contains no spectra")
    return spectra


def storage_report(
    base_param_count: int, k_percent: float, coeff_counts: list[int]
) -> StorageReport:
    """Both accountings: k% of base parameters vs literal coefficient cost."""
    if base_param_count < 1:
        raise ValueError("base_param_count must be positive")
    if not 0.0 < k_percent <= 100.0:
        raise ValueError(f"k_percent must be in (0, 100], got {k_percent}")
    if not coeff_counts or any(c < 1 for c in coeff_counts):
        raise ValueError("coeff_counts must be a non-empty list of positive counts")

    # Half-up rounding: 296450 * 5% must give 14823, not banker's 14822.
    nominal_stored = int(math.floor(base_param_count * k_percent / 100.0 + 0.5))
    nominal_stored = max(1, nominal_stored)
    value_count = int(sum(coeff_counts))
    total_units = 2 * value_count  # one u32 index per binary32 value
    return StorageReport(
        base_param_count=int(base_param_count),
        k_percent=float(k_percent),
        nominal_stored=nominal_stored,
        nominal_reduction=base_param_count / nominal_stored,
        coeff_value_count=value_count,
        coeff_total_units=total_units,
        coeff_reduction=base_param_count / total_units,
        exceeds_base=total_units > base_param_count,
    )


def _fits_binary32(values: np.ndarray) -> bool:
    """Every value is finite and within binary32 range."""
    return bool(np.all(np.abs(values) <= np.finfo(np.float32).max))


def _parse_shape(metadata: dict[str, str], base: str) -> tuple[int, int]:
    key = f"shape.{base}"
    raw = metadata.get(key)
    if raw is None:
        raise CorruptSparse(f"missing metadata key {key!r}")
    parts = raw.split(",")
    try:
        m, n = (int(p) for p in parts)
    except ValueError as exc:
        raise CorruptSparse(f"bad shape metadata {raw!r} for {base!r}") from exc
    if m < 1 or n < 1:
        raise CorruptSparse(f"bad shape metadata {raw!r} for {base!r}")
    # Checked before anything of that size is allocated: a u32 index
    # addresses at most 2^32 coefficients.
    if m * n > 2**32:
        raise CorruptSparse(
            f"shape metadata {raw!r} for {base!r} exceeds the 2^32 "
            "coefficients a u32 index can address"
        )
    return (m, n)
