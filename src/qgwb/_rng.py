"""Counter-based deterministic random stream (SplitMix64).

Randomised test families must reproduce bit-identically across runs,
platforms and reimplementations, so instead of a library RNG we fix the
classic SplitMix64 stream:

    state_{k+1} = state_k + 0x9E3779B97F4A7C15  (mod 2^64)
    z = state_{k+1}
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9    (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB    (mod 2^64)
    output_k = z ^ (z >> 31)

Doubles are (output >> 11) * 2^-53 in [0, 1); normals use Box-Muller on
consecutive uniforms.  A generator is identified by its integer seed.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _box_muller(u1, u2):
    # guard against log(0); math, not numpy: the reports print last digits
    u1 = max(u1, 2.0 ** -53)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class CounterRNG:
    """SplitMix64 stream with convenience samplers."""

    def __init__(self, seed: int = 0):
        self._state = seed & _MASK

    def u64s(self, count: int) -> np.ndarray:
        """The next count outputs as a uint64 array.  Array arithmetic wraps
        mod 2^64 silently, where numpy scalars would warn."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * _MUL1
        z = (z ^ (z >> 27)) * _MUL2
        return z ^ (z >> 31)

    def uniforms(self, count: int) -> list:
        """The next count doubles in [0, 1), as Python floats."""
        return ((self.u64s(count) >> 11).astype(float) * 2.0 ** -53).tolist()

    def complex_normals(self, n: int) -> list:
        """n complex normals, each from four uniforms: Box-Muller for the
        real part, then for the imaginary part, over sqrt(2)."""
        u = self.uniforms(4 * n)
        return [complex(_box_muller(u[k], u[k + 1]), _box_muller(u[k + 2], u[k + 3]))
                / math.sqrt(2.0) for k in range(0, 4 * n, 4)]

    def complex_vector(self, n: int) -> np.ndarray:
        return np.array(self.complex_normals(n))

    def unit_vector(self, n: int) -> np.ndarray:
        v = self.complex_vector(n)
        return v / np.linalg.norm(v)

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.complex_vector(rows * cols).reshape(rows, cols)

    def hermitian(self, n: int) -> np.ndarray:
        g = self.complex_matrix(n, n)
        return 0.5 * (g + g.conj().T)
