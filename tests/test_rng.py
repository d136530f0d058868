"""`_rng.uniform_block` against numpy's own `default_rng((seed, step)).uniform`."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lapsens import _rng

# Seeds of one to seven uint32 words: with the step, entropy of two words up
# to more than SeedSequence's pool of four.
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**96 + 12345]),
    st.integers(0, 2**40),
    st.integers(2**96, 2**224),
)
# Steps near 0, and runs that cross 2**32, where a step gains a second word.
STARTS = st.one_of(st.integers(0, 300), st.integers(2**32 - 6, 2**32 + 2))
BOUNDS = st.sampled_from([0.0, 5e-324, 0.05, 1e300])
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 5))


def _reference(seeds, start, count, bound, shape):
    return [
        [
            np.random.default_rng((seed, step)).uniform(-bound, bound, shape)
            for step in range(start, start + count)
        ]
        for seed in seeds
    ]


@settings(max_examples=80, deadline=None)
@given(st.lists(SEEDS, min_size=1, max_size=4), STARTS, st.integers(1, 8), BOUNDS, SHAPES)
@example([0, 2**32 - 1, 2**32, 2**64, 2**96 + 7], 2**32 - 3, 6, 1e300, (6, 5))
@example([0], 0, 1, 5e-324, (1, 1))
@example([2**32, 3], 7, 2, 0.0, (2, 3))
@example([5, 2**64, 2**160], 2**32 - 1, 2, 0.05, (4, 4))
def test_block_equals_default_rng_bit_for_bit(seeds, start, count, bound, shape):
    got = _rng.uniform_block(seeds, start, count, -bound, bound, shape)
    assert got.shape == (len(seeds), count, *shape)
    for i, row in enumerate(_reference(seeds, start, count, bound, shape)):
        for j, want in enumerate(row):
            assert np.array_equal(got[i, j], want)
            assert got[i, j].tobytes() == want.tobytes()


def test_negative_seed_raises_as_numpy_does():
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        np.random.default_rng((-1, 0))
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        _rng.uniform_block([3, -1], 0, 4, -0.1, 0.1, (2, 2))


def test_non_integer_seed_raises():
    with pytest.raises(TypeError):
        _rng.uniform_block([1.5], 0, 1, -0.1, 0.1, (1, 1))


def test_overflowing_range_raises_as_numpy_does():
    with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
        np.random.default_rng((0, 0)).uniform(-1e308, 1e308, (1, 1))
    with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
        _rng.uniform_block([0], 0, 1, -1e308, 1e308, (1, 1))
