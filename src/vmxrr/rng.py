"""Deterministic 64-bit RNG used for workload generation, noise, and fuzzing.

splitmix64 keeps generated programs and trace files bit-identical across
interpreter versions and platforms; the stdlib Mersenne Twister only
guarantees that for random(), not for the derived helpers we need.

splitmix64 is counter based: output k of a generator whose state is s is a
fixed mix of s + (k+1)*gamma mod 2**64. So SplitMix64 computes its outputs
in blocks of 256, each block as a handful of operations on one Python int
that holds 256 states in 128-bit lanes, and hands them out one by one. The
stream is the scalar algorithm's, output for output:

- A lane is 128 bits because the mix multiplies a 64-bit value by a 64-bit
  constant. The product fits in its lane and never carries into the next,
  and each product is masked back to its low 64 bits before the next step.
  A right shift pulls the low bits of the next lane into the top of each
  lane; the mask after every shift drops them.
- A block holds 256 outputs because each of its dozen or so int
  operations has a fixed interpreter cost on top of its per-lane work.
  256 lanes spread that cost thin (about 90 ns an output, against 160 ns
  at 64 lanes, on a 2-vCPU VM under Python 3.11), and wider blocks were
  measured no faster. A generator computes its first block on its first
  draw, not when it is made.
- The lanes are unpacked little-endian by one struct format, never in the
  host's byte order, so the stream is the same on every platform.
"""

from __future__ import annotations

import struct

MASK64 = (1 << 64) - 1

# Algorithm identifier stored in trace headers so a reader can verify the
# stream is reproducible.
RNG_ALGORITHM = "splitmix64"

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_LANES = 256
_LANE_BITS = 128
_ONES = sum(1 << (_LANE_BITS * k) for k in range(_LANES))     # 1 in every lane
_LOW64 = _ONES * MASK64                                        # low 64 bits of every lane
_GAMMAS = sum((((k + 1) * _GAMMA) & MASK64) << (_LANE_BITS * k) for k in range(_LANES))
_BLOCK_STEP = (_LANES * _GAMMA) & MASK64
_UNPACK = struct.Struct("<" + "Q8x" * _LANES)                  # the low 8 bytes of each lane


class SplitMix64:
    """Steele/Lea/Flood splitmix64: one u64 of state, 64 bits out per step,
    computed a block of 256 steps at a time."""

    __slots__ = ("_state", "_block", "_pos")

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64       # the state before the next block
        self._block: tuple[int, ...] = ()
        self._pos = _LANES

    def _next_block(self) -> None:
        s = self._state
        z = (s * _ONES + _GAMMAS) & _LOW64
        z = ((z ^ ((z >> 30) & _LOW64)) * _MIX1) & _LOW64
        z = ((z ^ ((z >> 27) & _LOW64)) * _MIX2) & _LOW64
        z ^= z >> 31        # what leaks into a lane's high half is never unpacked
        self._block = _UNPACK.unpack(z.to_bytes(_UNPACK.size, "little"))
        self._state = (s + _BLOCK_STEP) & MASK64

    def next_u64(self) -> int:
        i = self._pos
        if i == _LANES:
            self._next_block()
            i = 0
        self._pos = i + 1
        return self._block[i]

    def below(self, bound: int) -> int:
        """Uniform int in [0, bound) via fixed-point multiply (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform int in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def rand_float(self) -> float:
        return self.next_u64() / 2.0**64

    def chance(self, p: float) -> bool:
        return self.rand_float() < p

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def weighted(self, items):
        """Pick from [(item, weight), ...]; weights need not sum to 1."""
        total = sum(w for _, w in items)
        x = self.rand_float() * total
        acc = 0.0
        for item, w in items:
            acc += w
            if x < acc:
                return item
        return items[-1][0]
