"""Tensor container IO and low-rank adapter pairing.

File layout: 8 bytes little-endian unsigned header length H, then H bytes
of UTF-8 JSON mapping tensor names to {"dtype", "shape", "data_offsets"}
plus an optional "__metadata__" string map, then the raw little-endian
row-major buffer. Each payload stays in its file dtype from read to write;
``TensorRecord.as_matrix`` is the one place it is widened to binary64.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContainerError,
    DuplicateName,
    MalformedHeader,
    OffsetError,
    ShapeMismatch,
    TruncatedFile,
)
from .linalg import Matrix

_DTYPES = {"F16": np.dtype("<f2"), "F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_LAYER_SEGMENT = re.compile(r"(?:^|\.)layers?\.(\d+)(?:\.|$)")
# Cap on scale·||B||_F·||A||_F: update energies stay 2^24 below the binary64 max.
_MAX_UPDATE_NORM = 2.0**500


class TensorRecord:
    """One named tensor: dtype tag, shape, and flat row-major read-only data
    in the tag's dtype. A read-only array in that dtype is kept as is (so a
    record read from bytes is a view of them); anything else is copied."""

    __slots__ = ("name", "dtype", "shape", "data")

    def __init__(self, name: str, dtype: str, shape, data):
        if dtype not in _DTYPES:
            raise MalformedHeader(f"unknown dtype {dtype!r} for tensor {name!r}")
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise MalformedHeader(f"negative shape {shape} for tensor {name!r}")
        keep = isinstance(data, np.ndarray) and not data.flags.writeable
        flat = np.array(data, _DTYPES[dtype], copy=None if keep else True, order="C")
        flat = flat.reshape(-1)
        if flat.size != math.prod(shape):
            raise ValueError(
                f"tensor {name!r}: {flat.size} values do not fill shape {shape}"
            )
        flat.setflags(write=False)
        self.name = name
        self.dtype = dtype
        self.shape = shape
        self.data = flat

    def as_matrix(self) -> Matrix:
        """The data widened to a binary64 Matrix, the only widening copy."""
        if len(self.shape) != 2:
            raise ShapeMismatch(
                f"tensor {self.name!r} has shape {self.shape}, expected 2-D"
            )
        try:
            # A signalling NaN warns in this cast; Matrix rejects it as NaN.
            with np.errstate(invalid="ignore"):
                return Matrix(self.data.reshape(self.shape))
        except ValueError as exc:  # a zero dimension or a NaN/Inf entry
            raise ContainerError(f"tensor {self.name!r}: {exc}") from exc

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorRecord):
            return NotImplemented
        return (
            self.name == other.name
            and self.dtype == other.dtype
            and self.shape == other.shape
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"TensorRecord({self.name!r}, {self.dtype}, {self.shape})"


@dataclass(frozen=True)
class AdapterFile:
    """Parsed container: ordered tensors plus free-form string metadata."""

    tensors: tuple[TensorRecord, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))
        names = [t.name for t in self.tensors]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})[0]
            raise DuplicateName(f"duplicate tensor name {dup!r}")

    def tensor(self, name: str) -> TensorRecord:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(name)

    def names(self) -> list[str]:
        return [t.name for t in self.tensors]


@dataclass(frozen=True)
class LoraPair:
    """A matched low-rank factor pair; merged update is scale * (B @ A)."""

    prefix: str
    a_matrix: Matrix  # r x n
    b_matrix: Matrix  # m x r
    layer_index: int | None
    module_kind: str
    scale: float

    def __post_init__(self):
        r = self.a_matrix.rows
        if self.b_matrix.cols != r:
            raise ShapeMismatch(
                f"pair {self.prefix!r}: A is {self.a_matrix.rows}x"
                f"{self.a_matrix.cols} but B is {self.b_matrix.rows}x"
                f"{self.b_matrix.cols}; inner dimensions differ"
            )
        if r > min(self.b_matrix.rows, self.a_matrix.cols):
            raise ShapeMismatch(
                f"pair {self.prefix!r}: rank {r} exceeds "
                f"min({self.b_matrix.rows}, {self.a_matrix.cols})"
            )
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"pair {self.prefix!r}: scale must be positive")
        # The bound covers dW and the unscaled B @ A the merge and the SVD form.
        bound = max(self.scale, 1.0) * _norm(self.b_matrix) * _norm(self.a_matrix)
        if not bound <= _MAX_UPDATE_NORM:
            raise ContainerError(
                f"pair {self.prefix!r}: update energy overflows at scale {self.scale:g}"
            )

    @property
    def rank(self) -> int:
        return self.a_matrix.rows

    @property
    def out_shape(self) -> tuple[int, int]:
        return (self.b_matrix.rows, self.a_matrix.cols)


@dataclass(frozen=True)
class OrphanFactor:
    """A lora_A/lora_B tensor whose partner is missing."""

    prefix: str
    role: str  # "A" or "B"
    tensor_name: str


@dataclass(frozen=True)
class PairingResult:
    pairs: tuple[LoraPair, ...]
    orphans: tuple[OrphanFactor, ...]


def read_container(raw: bytes) -> AdapterFile:
    """Parse container bytes into an AdapterFile whose records are views of
    them; any other buffer is copied once, whole, so none is aliased."""
    if not isinstance(raw, bytes):
        raw = bytes(raw)
    if len(raw) < 8:
        raise TruncatedFile(f"file is {len(raw)} bytes, need at least 8")
    (header_len,) = struct.unpack("<Q", raw[:8])
    if 8 + header_len > len(raw):
        raise TruncatedFile(
            f"header declares {header_len} bytes but only "
            f"{len(raw) - 8} follow"
        )
    try:
        text = raw[8 : 8 + header_len].decode("utf-8")
        header = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    # ValueError also covers undecodable bytes and integers past the digit
    # limit; RecursionError is nesting deeper than the parser's stack.
    except (ValueError, RecursionError) as exc:
        raise MalformedHeader(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeader("header JSON must be an object")

    metadata = _parse_metadata(header.pop("__metadata__", {}))
    buffer = memoryview(raw)[8 + header_len :]

    tensors = []
    spans = []
    for name, entry in header.items():
        dtype, shape, start, end = _parse_entry(name, entry)
        count = math.prod(shape)
        nbytes = count * _DTYPES[dtype].itemsize
        if end - start != nbytes:
            raise OffsetError(
                f"tensor {name!r}: data_offsets span {end - start} bytes "
                f"but shape {shape} as {dtype} needs {nbytes}"
            )
        if end > len(buffer):
            raise OffsetError(
                f"tensor {name!r}: data_offsets [{start}, {end}] exceed "
                f"the {len(buffer)}-byte buffer"
            )
        values = np.frombuffer(buffer, dtype=_DTYPES[dtype], count=count, offset=start)
        tensors.append(TensorRecord(name, dtype, shape, values))
        if nbytes > 0:
            spans.append((start, end, name))

    spans.sort()
    for (s1, e1, n1), (s2, e2, n2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise OffsetError(
                f"tensors {n1!r} and {n2!r} have overlapping data_offsets"
            )
    return AdapterFile(tensors=tuple(tensors), metadata=metadata)


def container_chunks(file: AdapterFile):
    """An AdapterFile's ``container_header``, then each tensor's own data in
    sorted-name order: the file as a stream, never held whole."""
    tensors = sorted(file.tensors, key=lambda t: t.name)
    yield container_header([(t.name, t.dtype, t.shape) for t in tensors], file.metadata)
    for t in tensors:
        yield t.data


def write_container(file: AdapterFile) -> bytes:
    """The joined ``container_chunks``; nothing else is allocated."""
    return b"".join(container_chunks(file))


def container_header(
    tensors: list[tuple[str, str, tuple[int, ...]]],
    metadata: dict[str, str] | None = None,
) -> bytes:
    """The length prefix and JSON header of a container holding the given
    (name, dtype, shape) tensors, whose payloads follow it packed
    contiguously in sorted-name order.

    Header keys are sorted lexicographically. Only names and shapes are
    read, so a writer can emit the header before any payload exists.
    """
    names = [name for name, _, _ in tensors]
    if len(set(names)) != len(names):
        raise DuplicateName("tensor names must be unique")

    header: dict[str, object] = {}
    offset = 0
    for name, dtype, shape in sorted(tensors, key=lambda t: t[0]):
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        header[name] = {
            "dtype": dtype,
            "shape": [int(s) for s in shape],
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    if metadata:
        header["__metadata__"] = {str(k): str(v) for k, v in metadata.items()}

    blob = json.dumps(
        header, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob


def pair_lora(file: AdapterFile) -> PairingResult:
    """Group lora_A/lora_B tensors into factor pairs.

    Tensors are matched by the name prefix preceding the lora_A/lora_B
    segment. Missing partners become orphan reports rather than errors;
    incompatible shapes within a matched pair raise ShapeMismatch. Pairs,
    and orphans without a partner, follow each prefix's first tensor.
    """
    groups: dict[str, dict[str, TensorRecord]] = {}
    orphans: list[OrphanFactor] = []
    for t in file.tensors:
        role, prefix = _classify(t.name)
        if role is None:
            continue
        slot = groups.setdefault(prefix, {})
        if role in slot:
            orphans.append(OrphanFactor(prefix=prefix, role=role, tensor_name=t.name))
        else:
            slot[role] = t

    scale = _scale_from_metadata(file.metadata)
    pairs: list[LoraPair] = []
    for prefix, slot in groups.items():
        if "A" in slot and "B" in slot:
            pairs.append(
                LoraPair(
                    prefix=prefix,
                    a_matrix=slot["A"].as_matrix(),
                    b_matrix=slot["B"].as_matrix(),
                    layer_index=_layer_index(prefix),
                    module_kind=_module_kind(prefix),
                    scale=scale,
                )
            )
        else:
            role, t = next(iter(slot.items()))
            orphans.append(
                OrphanFactor(prefix=prefix, role=role, tensor_name=t.name)
            )
    return PairingResult(pairs=tuple(pairs), orphans=tuple(orphans))


def merge_delta(pair: LoraPair) -> Matrix:
    """Merged update scale * (B @ A) in one m x n buffer: rank-1 terms summed
    in ascending inner index, so each entry is the naive triple loop's bit for
    bit whatever BLAS does, then scaled in place."""
    b, a = pair.b_matrix.array, pair.a_matrix.array
    out = np.zeros(pair.out_shape)
    for k in range(pair.rank):
        out += np.multiply.outer(b[:, k], a[k])
    out *= float(pair.scale)
    return Matrix(out, copy=False)


def _norm(m: Matrix) -> float:
    """||m||_F without overflow: the entries are divided by the largest first."""
    top = float(np.max(np.abs(m.array))) or 1.0
    return top * math.sqrt(float(np.sum((m.array / top) ** 2)))


def _reject_duplicate_keys(items):
    seen = set()
    for key, _ in items:
        if key in seen:
            raise DuplicateName(f"duplicate tensor name {key!r} in header")
        seen.add(key)
    return dict(items)


def _parse_metadata(obj) -> dict[str, str]:
    if not isinstance(obj, dict):
        raise MalformedHeader("__metadata__ must be an object")
    out = {}
    for k, v in obj.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise MalformedHeader("__metadata__ must map strings to strings")
        out[k] = v
    return out


def _parse_entry(name: str, entry) -> tuple[str, tuple[int, ...], int, int]:
    if not isinstance(entry, dict):
        raise MalformedHeader(f"tensor {name!r}: header entry must be an object")
    try:
        dtype = entry["dtype"]
        shape = entry["shape"]
        offsets = entry["data_offsets"]
    except KeyError as exc:
        raise MalformedHeader(f"tensor {name!r}: missing header key {exc}") from exc
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise MalformedHeader(f"unknown dtype {dtype!r} for tensor {name!r}")
    if not isinstance(shape, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in shape
    ):
        raise MalformedHeader(f"tensor {name!r}: shape must be a list of integers")
    if any(s < 0 for s in shape):
        raise MalformedHeader(f"tensor {name!r}: negative dimension in {shape}")
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
    ):
        raise MalformedHeader(
            f"tensor {name!r}: data_offsets must be [start, end] integers"
        )
    start, end = offsets
    if start < 0 or end < start:
        raise OffsetError(f"tensor {name!r}: bad data_offsets [{start}, {end}]")
    return dtype, tuple(shape), start, end


def _classify(name: str) -> tuple[str | None, str]:
    pos_a = name.find("lora_A")
    pos_b = name.find("lora_B")
    if pos_a < 0 and pos_b < 0:
        return None, ""
    if pos_b < 0 or (0 <= pos_a < pos_b):
        return "A", name[:pos_a].rstrip(".")
    return "B", name[:pos_b].rstrip(".")


def _layer_index(prefix: str) -> int | None:
    match = _LAYER_SEGMENT.search(prefix)
    return int(match.group(1)) if match else None


def _module_kind(prefix: str) -> str:
    lowered = prefix.lower()
    for kind in ("query", "value", "key"):
        if kind in lowered:
            return kind
    return "other"


def _scale_from_metadata(metadata: dict[str, str]) -> float:
    alpha, rank = metadata.get("alpha"), metadata.get("r")
    if alpha is None or rank is None:
        return 1.0
    try:
        scale = float(alpha) / float(rank)
    except (ValueError, ZeroDivisionError):
        scale = math.nan
    if not (scale > 0.0 and math.isfinite(scale)):
        raise MalformedHeader(f"alpha={alpha!r}, r={rank!r}: no finite merge scale > 0")
    return scale
