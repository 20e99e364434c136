"""Exception types shared across the toolkit.

Every failure mode a caller may want to catch has its own class, and each
class carries the exit code the CLI returns for it (README, "Exit codes").
"""

from __future__ import annotations


class LorafreqError(Exception):
    """Base class for all toolkit errors."""

    exit_code: int


class ContainerError(LorafreqError):
    """Base class for tensor-container parse/serialize failures."""

    exit_code = 2


class TruncatedFile(ContainerError):
    """Buffer ends before the declared header or tensor data."""


class MalformedHeader(ContainerError):
    """Header JSON is invalid, or declares an unknown dtype / bad shape."""


class OffsetError(ContainerError):
    """data_offsets are overlapping, out of range, or sized wrong."""


class DuplicateName(ContainerError):
    """Two tensors share a name."""


class ShapeMismatch(LorafreqError):
    """Operand shapes are incompatible."""

    exit_code = 2


class NoConvergence(LorafreqError):
    """A decomposition failed to converge (LAPACK reported no convergence)."""

    exit_code = 6


class ZeroSpectrum(LorafreqError):
    """The matrix (or its spectrum) carries no energy at all."""

    exit_code = 4


class CorruptSparse(LorafreqError):
    """Sparse spectrum indices are unsorted, duplicated, or out of range."""

    exit_code = 5


class NotSpectralFile(LorafreqError):
    """Container is not a spectral-sparse-v1 file."""

    exit_code = 5


class DegenerateInput(LorafreqError):
    """Statistics input is too small or has zero variance."""

    exit_code = 6


class InvalidSpec(LorafreqError):
    """Fixture specification has impossible dimensions or an unknown kind."""

    exit_code = 1
