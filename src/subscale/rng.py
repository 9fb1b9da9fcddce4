"""Portable seeded random source for reproducible fixtures.

All synthetic data in the toolkit is drawn from SplitMix64, a tiny public
64-bit generator with a fully specified update rule, so the same spec and
seed produce bit-identical fixtures on any platform or language.  Gaussian
variates come from the Box-Muller transform on top of the uniform stream.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream: state += golden-gamma; output = mix(state).

    ``uniform`` maps the top 53 output bits into (0, 1], which keeps
    ``log(u)`` finite for Box-Muller.  The seed is an integer in [0, 2^64):
    one outside would be reduced to another seed's stream.
    """

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not 0 <= int(seed) <= _MASK64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed!r}")
        self._state = int(seed)
        self._spare_normal: float | None = None

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in (0, 1]."""
        return ((self.next_uint64() >> 11) + 1) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)], dtype=float)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, unbiased for any n ≥ 1."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - (_MASK64 + 1) % n
        while True:
            x = self.next_uint64()
            if x < limit:
                return x % n

    def normal(self) -> float:
        """Standard normal via Box-Muller; the paired variate is cached."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=float)

    def choice_weighted(self, weights: np.ndarray) -> int:
        """Index drawn proportionally to non-negative ``weights``."""
        w = np.asarray(weights, dtype=float)
        total = float(w.sum())
        if not total > 0.0:
            raise ValueError("weights must have positive sum")
        u = self.uniform() * total
        return int(np.searchsorted(np.cumsum(w), u, side="left").clip(0, len(w) - 1))
