"""Deterministic synthetic adapters.

All randomness flows from SplitMix64 (exact 64-bit integer arithmetic) and
a Box-Muller transform that consumes two 53-bit uniforms in (0, 1] per
pair of normals, so identical specs produce identical containers on any
platform with a faithful libm.

SplitMix64 is counter-based (output i is mix(seed + i*gamma)), so `fill`
draws the stream in numpy uint64 blocks of _BLOCK_PAIRS pairs, and the
uniforms, square roots and products are array operations. Each is exact or
correctly rounded, so the bytes equal those of the one-at-a-time stream,
the scalar reference in tests/oracles.py.
log, cos and sin are not correctly rounded, and numpy's log differs from
libm's in the last bit on about 0.35% of uniforms, so all three stay `math`
calls mapped over each block.

Kinds:
  gaussian_iid    A (r x n) and B (m x r), i.i.d. N(0, 1/sqrt(r)).
  smooth_lowrank  factor rows/columns are the lowest-index DCT basis
                  vectors; the merged update has exactly r unit spectral
                  spikes in its lowest r x r block.
  mixed           smooth factors plus noise_level times standard-normal
                  factor perturbations.
  dense_gaussian  the update itself is i.i.d. standard normal, stored as
                  an identity-factor pair so it still parses as lora_A/B.
"""

from __future__ import annotations

import math
import dataclasses
from dataclasses import dataclass

import numpy as np

from .container import AdapterFile, TensorRecord
from .dct import _basis
from .errors import InvalidSpec

KINDS = ("gaussian_iid", "smooth_lowrank", "mixed", "dense_gaussian")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_NEG53 = 2.0**-53
_BLOCK_PAIRS = 4096


@dataclass(frozen=True)
class FixtureSpec:
    kind: str
    m: int
    n: int
    r: int = 1
    seed: int = 0
    noise_level: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown fixture kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise InvalidSpec(f"dimensions must be positive, got {self.m}x{self.n}")
        if self.r < 1 or self.r > min(self.m, self.n):
            raise InvalidSpec(
                f"rank {self.r} outside [1, min({self.m}, {self.n})]"
            )
        if not 0 <= self.seed <= _MASK64:
            raise InvalidSpec("seed must fit in 64 bits")
        if self.noise_level < 0.0 or not math.isfinite(self.noise_level):
            raise InvalidSpec(
                f"noise_level must be finite and >= 0, got {self.noise_level}"
            )
        if self.noise_level > 0.0 and self.kind != "mixed":
            raise InvalidSpec("noise_level applies to the mixed kind only")


class SplitMix64:
    """SplitMix64 stream over 64-bit integers, drawn in blocks."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_block(self, count: int) -> np.ndarray:
        """The next `count` outputs as uint64, exactly those of the scalar
        stream in tests/oracles.py."""
        # Explicit uint64 operands: numpy 1.x turns uint64 op int into float64.
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def next_unit_block(self, count: int) -> np.ndarray:
        """The next `count` uniforms in (0, 1] as float64: each output's 53
        high bits, shifted off zero."""
        z = self.next_block(count)
        z >>= np.uint64(11)
        z += np.uint64(1)
        units = z.astype(np.float64)
        units *= _TWO_NEG53
        return units


class GaussianStream:
    """Standard normals, two per Box-Muller pair, spare cached."""

    def __init__(self, rng: SplitMix64):
        self._rng = rng
        self._spare: float | None = None

    def fill(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        """rows x cols normals times scale, row-major, drawn in blocks; a
        pair's cosine comes first, and an odd sine is kept for the next call."""
        size = rows * cols
        start = 1 if self._spare is not None and size else 0
        npairs = (size - start + 1) // 2
        # One slot past `size` when it is odd: that pair's sine is the spare.
        buf = np.empty(start + 2 * npairs)
        if start:
            buf[0] = self._spare
            self._spare = None
        pairs = buf[start:].reshape(npairs, 2)
        for lo in range(0, npairs, _BLOCK_PAIRS):
            hi = min(lo + _BLOCK_PAIRS, npairs)
            radius, cos, sin = self._pairs(hi - lo)
            np.multiply(radius, cos, out=pairs[lo:hi, 0])
            np.multiply(radius, sin, out=pairs[lo:hi, 1])
        if buf.size > size:
            self._spare = float(buf[size])
        out = buf[:size]
        out *= scale
        return out.reshape(rows, cols)

    def _pairs(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """radius, cos(theta) and sin(theta) of the next `count` pairs."""
        units = self._rng.next_unit_block(2 * count)
        radius = np.fromiter(map(math.log, units[0::2].tolist()), float, count)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        theta = (units[1::2] * (2.0 * math.pi)).tolist()
        cos = np.fromiter(map(math.cos, theta), float, count)
        sin = np.fromiter(map(math.sin, theta), float, count)
        return radius, cos, sin


def generate(spec: FixtureSpec) -> AdapterFile:
    """One adapter pair at layer 0."""
    return generate_set([spec])


def generate_set(specs) -> AdapterFile:
    """One file holding one pair per spec, at layer indices 0, 1, ..."""
    specs = list(specs)
    if not specs:
        raise InvalidSpec("need at least one fixture spec")
    tensors = []
    for layer, spec in enumerate(specs):
        a, b = _factors(spec)
        base = f"layer.{layer}.query"
        tensors.append(TensorRecord(f"{base}.lora_A.weight", "F64", a.shape, a))
        tensors.append(TensorRecord(f"{base}.lora_B.weight", "F64", b.shape, b))
    return AdapterFile(tensors=tuple(tensors), metadata={})


def ramp_specs(
    kind: str,
    m: int,
    n: int,
    count: int,
    seed: int,
    noise_level: float = 0.0,
) -> list[FixtureSpec]:
    """Specs with rank ramping 1..count, one seed offset per layer."""
    if count < 1:
        raise InvalidSpec("count must be positive")
    if count > min(m, n):
        raise InvalidSpec(
            f"rank ramp 1..{count} does not fit min({m}, {n})"
        )
    base = FixtureSpec(kind, m, n, seed=seed & _MASK64, noise_level=noise_level)
    return [
        dataclasses.replace(base, r=i + 1, seed=(seed + i) & _MASK64)
        for i in range(count)
    ]


def repeat_specs(spec: FixtureSpec, count: int) -> list[FixtureSpec]:
    """The same fixture at consecutive seed offsets."""
    if count < 1:
        raise InvalidSpec("count must be positive")
    return [
        dataclasses.replace(spec, seed=(spec.seed + i) & _MASK64)
        for i in range(count)
    ]


def _factors(spec: FixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) for one spec; A is r x n, B is m x r."""
    m, n, r = spec.m, spec.n, spec.r
    gauss = GaussianStream(SplitMix64(spec.seed))

    if spec.kind == "gaussian_iid":
        # N(0, 1/sqrt(r)) variance, so the merged update is unit-variance.
        scale = (1.0 / math.sqrt(r)) ** 0.5
        a = gauss.fill(r, n, scale)
        b = gauss.fill(m, r, scale)
        return a, b

    if spec.kind == "smooth_lowrank":
        return _smooth_factors(m, n, r)

    if spec.kind == "mixed":
        a, b = _smooth_factors(m, n, r)
        a = a + spec.noise_level * gauss.fill(r, n)
        b = b + spec.noise_level * gauss.fill(m, r)
        return a, b

    # dense_gaussian: emit the update itself, paired with an identity factor.
    delta = gauss.fill(m, n)
    if m >= n:
        return np.eye(n), delta
    return delta, np.eye(m)


def _smooth_factors(m: int, n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    a = _basis(n)[:r, :].copy()
    b = _basis(m)[:r, :].T.copy()
    return a, b
