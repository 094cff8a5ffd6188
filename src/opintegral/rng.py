"""Deterministic pseudo-random streams for test ensembles and reports.

The generator is xorshift64* with the multiplier 0x2545F4914F6CDD1D and
shift triple (12, 25, 27); seeds pass through one splitmix64 scramble so
that small seeds give unrelated streams.  The point of pinning the exact
generator is that every sampled ensemble (random Hermitian matrices, trial
suites) is reproducible bit-for-bit from a 64-bit seed, independently of
numpy's RNG evolution.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _SPLITMIX_GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Xorshift64Star:
    """64-bit xorshift* stream; uniforms use the top 53 bits."""

    def __init__(self, seed: int):
        self._state = _splitmix64(seed & _MASK)
        if self._state == 0:
            self._state = _SPLITMIX_GAMMA

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self._state = x
        return (x * _MULT) & _MASK

    def uniform(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1)."""
        out = np.empty(n)
        for i in range(n):
            out[i] = (self.next_u64() >> 11) * (2.0 ** -53)
        return out

    def normal(self, n: int) -> np.ndarray:
        """n standard normals (Box-Muller, pairs consumed in order)."""
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        u1 = np.maximum(u1, 2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def complex_normal(self, shape) -> np.ndarray:
        """Standard complex Gaussian array (real and imag parts N(0,1))."""
        n = int(np.prod(shape))
        z = self.normal(2 * n)
        return (z[:n] + 1j * z[n:]).reshape(shape)

    def hermitian(self, n: int) -> np.ndarray:
        """Random dense Hermitian matrix, entries O(1)."""
        g = self.complex_normal((n, n))
        return 0.5 * (g + g.conj().T)
