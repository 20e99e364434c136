"""Reference implementations that the tests check the package against.

Each is the plain definition, one value or one basis product at a time,
and none ships in the package.
"""

from __future__ import annotations

import math

from lorafreq.dct import Spectrum, _basis
from lorafreq.fixtures import (
    _GAMMA,
    _MASK64,
    _MIX1,
    _MIX2,
    _TWO_NEG53,
    GaussianStream,
    SplitMix64,
)
from lorafreq.linalg import Matrix


def idct2_reference(f: Spectrum) -> Matrix:
    """Definitional inverse: transpose of the orthogonal basis on each side."""
    m, n = f.coefficients.shape
    return Matrix(_basis(m).T @ f.coefficients.array @ _basis(n))


class ScalarSplitMix64(SplitMix64):
    """SplitMix64 one exact 64-bit integer at a time, sharing the block
    stream's state, so scalar and block draws can be interleaved."""

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform in (0, 1]: 53 high bits, shifted off zero."""
        return ((self.next_u64() >> 11) + 1) * _TWO_NEG53


class ScalarGaussianStream(GaussianStream):
    """Box-Muller one normal at a time over a ScalarSplitMix64, sharing
    ``fill``'s spare, so scalar and block draws can be interleaved."""

    def next(self) -> float:
        if self._spare is not None:
            value = self._spare
            self._spare = None
            return value
        u1 = self._rng.next_unit()
        u2 = self._rng.next_unit()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = radius * math.sin(theta)
        return radius * math.cos(theta)
