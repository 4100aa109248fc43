from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from copslab.rng import _LANES, SplitMix64

# counts around the packed pass's chunk boundaries, and a few small ones
COUNTS = st.sampled_from([0, 1, 2, 7, 28, 91, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES, 3 * _LANES - 1])
SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
PROBS = st.one_of(
    st.sampled_from([0.0, 2.0**-53, 0.5, 0.9, 1 - 2.0**-53, 1.0]),
    st.integers(1, 70).map(lambda n: 1.5 / n),  # where the connected path-free sampler starts
    st.floats(0.0, 1.0),
)


def scalar(rng: SplitMix64, count: int, p: float) -> int:
    """The draws one `random()` call at a time, as a mask: bit k for draw k."""
    return sum(1 << k for k in range(count) if rng.random() < p)


class TestBernoulliMask:
    @given(COUNTS, PROBS, SEEDS)
    def test_matches_scalar_draws(self, count, p, seed):
        packed, single = SplitMix64(seed), SplitMix64(seed)
        assert packed.bernoulli_mask(count, p) == scalar(single, count, p)
        assert packed.next_u64() == single.next_u64()  # the same words consumed

    @given(st.integers(0, 2 * _LANES), SEEDS)
    def test_every_count(self, count, seed):
        packed, single = SplitMix64(seed), SplitMix64(seed)
        assert packed.bernoulli_mask(count, 0.3) == scalar(single, count, 0.3)
        assert packed.next_u64() == single.next_u64()

    @pytest.mark.parametrize("seed", range(6))
    def test_threshold_is_exact(self, seed):
        # p equal to the first draw is not above it; p half a step above it is,
        # where that half step is a float (draws below 2**52 * 2**-53)
        x = SplitMix64(seed).next_u64() >> 11
        cases = [(x * 2.0**-53, False), ((x + 1) * 2.0**-53, True)]
        if x < 2**52:
            cases.append(((x + 0.5) * 2.0**-53, True))
        for p, below in cases:
            assert SplitMix64(seed).bernoulli_mask(1, p) == int(below) == int(SplitMix64(seed).random() < p)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            SplitMix64(0).bernoulli_mask(-1, 0.5)
