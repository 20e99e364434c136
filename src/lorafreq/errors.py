"""Exception types shared across the toolkit.

Every failure mode a caller may want to catch has its own class; the CLI
maps these onto its documented exit codes.
"""

from __future__ import annotations


class LorafreqError(Exception):
    """Base class for all toolkit errors."""


class ContainerError(LorafreqError):
    """Base class for tensor-container parse/serialize failures."""


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


class NoConvergence(LorafreqError):
    """A decomposition failed to converge (LAPACK reported no convergence)."""


class ZeroSpectrum(LorafreqError):
    """The matrix (or its spectrum) carries no energy at all."""


class CorruptSparse(LorafreqError):
    """Sparse spectrum indices are unsorted, duplicated, or out of range."""


class NotSpectralFile(LorafreqError):
    """Container is not a spectral-sparse-v1 file."""


class DegenerateInput(LorafreqError):
    """Statistics input is too small or has zero variance."""


class InvalidSpec(LorafreqError):
    """Fixture specification has impossible dimensions or an unknown kind."""
