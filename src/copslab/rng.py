"""Deterministic 64-bit PRNG used for every random choice in the repo.

SplitMix64 (Steele, Lea, Flood 2014): a fixed, tiny, well-known generator
that is trivial to reimplement bit-for-bit in any language, so seeded
corpora stay reproducible outside this codebase.

`SplitMix64.bernoulli_mask` evaluates many draws at once: word k of the
stream mixes the state s + k*gamma, so the states of a run of draws are
known in advance. They are packed 128 bits apart into one Python int, and
each step of the mix (xor-shift, multiply, mask) is one big-integer
operation over all lanes. The products of the multiplies fit in a lane, and
the masks drop what a right shift carries over from the next lane, so every
lane ends with exactly the word the scalar `next_u64` would return.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 256  # draws per packed pass; the lane constants below hold this many


def _packed(values) -> int:
    """The 64-bit `values` as one int, value k in bits 128k .. 128k+63."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


_STEPS = _packed((k * _GAMMA) & _MASK64 for k in range(1, _LANES + 1))  # lane k: (k+1)*gamma
_ONES = _packed([1] * _LANES)
_LOW = _ONES * _MASK64
_FLAG = bytes.maketrans(b"\x00\x01", b"10")  # byte 8 of a lane is 1 when the draw is not below p


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer (wider seeds are masked)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Float in [0, 1) from the top 53 bits of the next word."""
        return (self.next_u64() >> 11) * 2.0**-53

    def bernoulli_mask(self, count: int, p: float) -> int:
        """Which of the next `count` draws satisfy `random() < p`: bit k for draw k.

        Consumes exactly `count` words, as `count` calls of `random` would.
        The test is exact: (word >> 11) * 2**-53 < p holds iff
        word < ceil(p * 2**53) << 11, and adding 2**64 minus that bound to a
        lane carries into the lane's bit 64 iff the word is not below it.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        bound = (math.ceil(min(p, 1.0) * 2.0**53) << 11) if p > 0 else 0
        pieces = []
        for start in range(0, count, _LANES):
            lanes = min(_LANES, count - start)
            keep = (1 << 128 * lanes) - 1
            steps, ones, low = _STEPS & keep, _ONES & keep, _LOW & keep
            z = (steps + self._state * ones) & low
            z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
            z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
            # the next lane's bits land at 97..127, above the carry into bit 64
            z = (z ^ (z >> 31)) + ((1 << 64) - bound) * ones
            flags = z.to_bytes(16 * lanes, "little")[-8::-16].translate(_FLAG)  # last draw first
            pieces.append(int(flags, 2).to_bytes((lanes + 7) // 8, "little"))
            self._state = (self._state + lanes * _GAMMA) & _MASK64
        return int.from_bytes(b"".join(pieces), "little")

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection sampling."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound
