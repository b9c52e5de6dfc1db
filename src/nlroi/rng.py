"""Deterministic SplitMix64 pseudo-random number generator.

The generator is counter-based: output k is a fixed bit mix of
``seed + k * GAMMA`` (mod 2**64), so a whole block of outputs can be
produced with vectorized integer arithmetic while remaining bit-identical
to stepping the generator one value at a time. Uniform doubles come from
the top 53 bits of each 64-bit output, giving values in [0, 1) that are
exactly reproducible on any platform, and normals from pairs of uniforms
by Box-Muller.

The block draws (``u64s``, ``uniforms``, ``normals``, ``uniforms_in``)
allocate their result once and fill it in chunks of ``_CHUNK`` outputs
through reused chunk-sized buffers, so a draw peaks at about the size
of its result; output k depends only on k, so the chunks give the bits of
one whole draw. ``_box_muller`` is the one Box-Muller kernel: ``normals``
hands it each chunk, and ``raw_to_normals`` streams a 2-D raw block
through it the same way, for ``toytask``, which splits one block between
several uses.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53_INV = 2.0**-53


_U64 = {c: np.uint64(c) for c in (_GAMMA, _MIX1, _MIX2, 11, 27, 30, 31)}

# Outputs per chunk of a block draw: a chunk and its shift buffer take
# 256 KB and stay in a 2 MB L2 (on large draws 2**12 and 2**18 were
# slower, 2**16 no faster)
_CHUNK = 1 << 14
# k * GAMMA for k = 1 .. _CHUNK: output offset + k is the mix of the state,
# plus offset * GAMMA, plus entry k - 1
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * _U64[_GAMMA]
_STEPS.flags.writeable = False


def _count(count: int) -> int:
    """``count`` as a Python int (a NumPy integer would overflow times GAMMA)."""
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"cannot draw a negative number of values, got {count}")
    return count


def _to_uniforms(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of raw outputs, written into
    ``out``. Shifts ``raw`` in place."""
    raw >>= _U64[11]
    return np.multiply(raw, _TWO53_INV, out=out)


def _box_muller(raw: np.ndarray, buf: np.ndarray, out: np.ndarray) -> None:
    """One normal per pair of consecutive raw outputs along the last axis,
    written into ``out``, through the uniform buffer ``buf``."""
    u = _to_uniforms(raw, buf[: raw.size].reshape(raw.shape))
    # 1 - u lies in (0, 1], keeping the log argument strictly positive
    r = np.subtract(1.0, u[..., 0::2], out=out)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = 2.0 * np.pi * u[..., 1::2]
    np.cos(angle, out=angle)
    r *= angle


def raw_to_normals(raw: np.ndarray, out: np.ndarray) -> None:
    """Standard normal deviates via Box-Muller, one per pair of consecutive
    raw outputs along the last axis of the 2-D block ``raw`` (even row
    length), written into ``out`` (one row per row of ``raw``, half its
    width). Shifts ``raw`` in place.

    The block goes through one uniform buffer in pieces of at most
    ``_CHUNK`` outputs: as many whole rows as fit (at least one), in column
    pieces of even width, so no pair straddles two pieces.
    """
    rows, width = raw.shape
    u = np.empty(min(raw.size, _CHUNK))
    step = max(1, _CHUNK // width)
    for r in range(0, rows, step):
        block = slice(r, r + step)
        for c in range(0, width, _CHUNK):
            _box_muller(raw[block, c : c + _CHUNK], u, out[block, c // 2 : (c + _CHUNK) // 2])


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

    def _draw(self, count: int):
        """Moves the stream past its next ``count`` outputs and yields them
        as (offset, z): z holds outputs offset + 1 .. offset + len(z), at
        most ``_CHUNK`` of them, in a buffer that the next chunk overwrites."""
        state = self._state
        self._state = (state + count * _GAMMA) & _MASK64
        z = np.empty(min(count, _CHUNK), dtype=np.uint64)
        tmp = np.empty(z.size, dtype=np.uint64)
        for offset in range(0, count, _CHUNK):
            m = min(_CHUNK, count - offset)
            zm, tm = z[:m], tmp[:m]
            np.add(_STEPS[:m], (state + offset * _GAMMA) & _MASK64, out=zm)
            # the SplitMix64 output mix
            zm ^= np.right_shift(zm, _U64[30], out=tm)
            zm *= _U64[_MIX1]
            zm ^= np.right_shift(zm, _U64[27], out=tm)
            zm *= _U64[_MIX2]
            zm ^= np.right_shift(zm, _U64[31], out=tm)
            yield offset, zm

    def u64s(self, count: int) -> np.ndarray:
        """`count` raw outputs (uint64), bit-identical to next_u64() in a loop."""
        count = _count(count)
        out = np.empty(count, dtype=np.uint64)
        for offset, z in self._draw(count):
            out[offset : offset + z.size] = z
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniform doubles, the top 53 bits of each of ``count``
        next_u64() outputs times 2**-53."""
        count = _count(count)
        out = np.empty(count)
        for offset, z in self._draw(count):
            _to_uniforms(z, out[offset : offset + z.size])
        return out

    def uniforms_in(self, count: int, lo: float, hi: float) -> np.ndarray:
        # the bits of lo + u * (hi - lo), without a second array
        u = self.uniforms(count)
        u *= hi - lo
        u += lo
        return u

    def normals(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller; consumes 2 uniforms each."""
        count = _count(count)
        out = np.empty(count)
        u = np.empty(min(2 * count, _CHUNK))
        # a chunk has even length, so no pair of outputs straddles two
        for offset, z in self._draw(2 * count):
            _box_muller(z, u, out[offset // 2 : (offset + z.size) // 2])
        return out

    def randint(self, n: int) -> int:
        """Integer in [0, n); ``n`` must be an integer."""
        n = operator.index(n)
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
