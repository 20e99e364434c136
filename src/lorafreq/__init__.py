"""Frequency-domain analysis, masking, and compression of LoRA updates."""

from .analysis import (
    EnergyCurve,
    MaskResult,
    SpectralSummary,
    SweepPoint,
    dct_k90,
    energy_curve,
    k_for_energy,
    mask_count,
    reconstruct,
    sweep,
    topk_mask,
)
from .codec import (
    SparseSpectrum,
    StorageReport,
    decode_sparse,
    encode_sparse,
    pack_sparse_file,
    storage_report,
    unpack_sparse_file,
)
from .container import (
    AdapterFile,
    LoraPair,
    OrphanFactor,
    PairingResult,
    TensorRecord,
    merge_delta,
    pair_lora,
    read_container,
    write_container,
)
from .dct import (
    Spectrum,
    dct2,
    dct2_factored,
    dct2_reference,
    idct2,
)
from .errors import (
    ContainerError,
    CorruptSparse,
    DegenerateInput,
    DuplicateName,
    InvalidSpec,
    LorafreqError,
    MalformedHeader,
    NotSpectralFile,
    NoConvergence,
    OffsetError,
    ShapeMismatch,
    TruncatedFile,
    ZeroSpectrum,
)
from .fixtures import (
    FixtureSpec,
    GaussianStream,
    SplitMix64,
    generate,
    generate_set,
    ramp_specs,
    repeat_specs,
)
from .linalg import Matrix, SvdResult, svd
from .report import _tool_version
from .stats import (
    CorrelationResult,
    pearson,
    pearson_p_two_sided,
    spearman,
    svd_dct_correlate,
    svd_k90,
)


def __getattr__(name: str):
    """TOOL_VERSION and __version__, looked up on first use (see
    ``report._tool_version``)."""
    if name in ("TOOL_VERSION", "__version__"):
        return _tool_version()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdapterFile",
    "ContainerError",
    "CorrelationResult",
    "CorruptSparse",
    "DegenerateInput",
    "DuplicateName",
    "EnergyCurve",
    "FixtureSpec",
    "GaussianStream",
    "InvalidSpec",
    "LoraPair",
    "LorafreqError",
    "MalformedHeader",
    "MaskResult",
    "Matrix",
    "NoConvergence",
    "NotSpectralFile",
    "OffsetError",
    "OrphanFactor",
    "PairingResult",
    "ShapeMismatch",
    "SparseSpectrum",
    "SpectralSummary",
    "Spectrum",
    "StorageReport",
    "SvdResult",
    "SweepPoint",
    "TOOL_VERSION",
    "TensorRecord",
    "TruncatedFile",
    "ZeroSpectrum",
    "dct2",
    "dct2_factored",
    "dct2_reference",
    "dct_k90",
    "decode_sparse",
    "encode_sparse",
    "energy_curve",
    "generate",
    "generate_set",
    "idct2",
    "k_for_energy",
    "mask_count",
    "merge_delta",
    "pack_sparse_file",
    "pair_lora",
    "pearson",
    "pearson_p_two_sided",
    "ramp_specs",
    "read_container",
    "reconstruct",
    "repeat_specs",
    "spearman",
    "storage_report",
    "svd",
    "svd_dct_correlate",
    "svd_k90",
    "sweep",
    "topk_mask",
    "unpack_sparse_file",
    "write_container",
]
