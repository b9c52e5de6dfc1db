"""Deterministic SplitMix64 pseudo-random number generator.

The generator is counter-based: output k is a fixed bit mix of
``seed + k * GAMMA`` (mod 2**64), so a whole block of outputs can be
produced with vectorized integer arithmetic while remaining bit-identical
to stepping the generator one value at a time. Uniform doubles come from
the top 53 bits of each 64-bit output, giving values in [0, 1) that are
exactly reproducible on any platform, and normals from pairs of uniforms
by Box-Muller. Both transforms are module functions, so a caller can take
one block of raw outputs and split it between several uses.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53_INV = 2.0**-53


_U64 = {c: np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2, 27, 30, 31)}


def _mix_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 output mix, in place on a fresh uint64 array."""
    z ^= z >> _U64[30]
    z *= _U64[_MIX1]
    z ^= z >> _U64[27]
    z *= _U64[_MIX2]
    z ^= z >> _U64[31]
    return z


def raw_to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of raw outputs.

    Shifts ``raw`` in place: callers pass a block they are done with, so a
    large draw never holds the raw block, its shifted copy and the result
    at once.
    """
    raw >>= np.uint64(11)
    return raw * _TWO53_INV


def uniforms_to_normals(u: np.ndarray) -> np.ndarray:
    """Standard normal deviates via Box-Muller, one per pair of consecutive
    uniforms along the last axis (which must have even length)."""
    # 1 - u[..., 0::2] lies in (0, 1], keeping the log argument strictly positive.
    r = 1.0 - u[..., 0::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = 2.0 * np.pi * u[..., 1::2]
    np.cos(angle, out=angle)
    r *= angle
    return r


class Prng:
    """SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = (z ^ (z >> 30)) * _MIX1 & _MASK64
        z = (z ^ (z >> 27)) * _MIX2 & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1) from the top 53 bits of the next output."""
        return (self.next_u64() >> 11) * _TWO53_INV

    def u64s(self, count: int) -> np.ndarray:
        """`count` raw outputs (uint64), bit-identical to next_u64() in a loop."""
        ks = np.arange(1, count + 1, dtype=np.uint64)
        ks *= _U64[_GAMMA]
        ks += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return _mix_array(ks)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniform doubles, bit-identical to calling uniform() in a loop."""
        return raw_to_uniforms(self.u64s(count))

    def uniforms_in(self, count: int, lo: float, hi: float) -> np.ndarray:
        return lo + self.uniforms(count) * (hi - lo)

    def normals(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller; consumes 2 uniforms each."""
        return uniforms_to_normals(self.uniforms(2 * count))

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return self.next_u64() % n

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n) via a partial Fisher-Yates shuffle."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} indices from range({n})")
        return partial_shuffle(n, self.u64s(k)[None])[0]


def partial_shuffle(n: int, draws: np.ndarray) -> list[list[int]]:
    """The first k entries of a Fisher-Yates shuffle of range(n), one
    shuffle per row of the (rows, k) array of raw outputs ``draws``.

    Swap i exchanges entry i with entry i + draws[., i] % (n - i), the value
    randint(n - i) gives for the same output.
    """
    k = draws.shape[1]
    picks = []
    for offsets in (draws % (n - np.arange(k, dtype=np.uint64))).tolist():
        pool = list(range(n))
        for i, offset in enumerate(offsets):
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        picks.append(pool[:k])
    return picks
