"""`numpy.random.Generator(PCG64(seed)).permutation`, bit for bit, without
loading `numpy.random`: PCG64 (O'Neill 2014; a 128-bit LCG with XSL-RR
output) seeded through numpy's `SeedSequence`, each 64-bit output split into
two 32-bit draws with the upper half kept for the next one, and a
Fisher-Yates shuffle from the last index down that draws `j <= i` by
masking a 32-bit value to the bits of `i` and rejecting it above `i` (numpy's
draw for `i < 2**32`).
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix, which advances its hash constant per call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_state(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)`."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # entropy past the pool is mixed into every word
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[i % 4]) for i in range(8)]
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Permuter:
    """One seeded generator; each `permutation` call continues its stream."""

    def __init__(self, seed: int):
        s0, s1, q0, q1 = _seed_state(seed)
        self._inc = ((q0 << 64 | q1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULT + self._inc) & _M128
        self._half = None  # the upper 32 bits of the last output, not yet drawn

    def permutation(self, n: int) -> np.ndarray:
        out = list(range(n))
        state, inc, half = self._state, self._inc, self._half
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    state = (state * _MULT + inc) & _M128
                    rot = state >> 122
                    x = (state >> 64 ^ state) & _M64
                    x = (x >> rot | x << (64 - rot)) & _M64
                    j, half = x & mask, x >> 32
                else:
                    j, half = half & mask, None
                if j <= i:
                    break
            out[i], out[j] = out[j], out[i]
        self._state, self._half = state, half
        return np.array(out, dtype=np.int64)
