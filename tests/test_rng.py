"""Tests for the counter-based streams: the vectorized Philox block function
must reproduce numpy's Philox generator bit for bit."""

import numpy as np
import pytest

from forrlab._rng import CHUNK, first_uniforms, substream


@pytest.mark.parametrize("seed", [0, 13, 2**41 + 5, 2**64 + 3, -1])
def test_first_uniforms_match_substreams(seed):
    # 2^64 + 3 puts a nonzero word in the second key word; -1 checks masking.
    n = 2000
    want = np.array([substream(seed, t).uniform() for t in range(n)])
    got = first_uniforms(seed, n)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


def test_first_uniforms_empty():
    out = first_uniforms(7, 0)
    assert out.shape == (0,)


def test_first_uniforms_blocks_match_one_call():
    # Blocks of CHUNK-sized draws, split across a block boundary, must equal
    # one unblocked call at every index.
    seed, n = 2**41 + 5, CHUNK + 37
    whole = first_uniforms(seed, n)
    parts = [first_uniforms(seed, k, start)
             for start, k in [(0, CHUNK - 3), (CHUNK - 3, 40)]]
    assert np.array_equal(np.concatenate(parts), whole)
    assert first_uniforms(seed, 1, CHUNK)[0] == substream(seed, CHUNK).uniform()
    with pytest.raises(ValueError):
        first_uniforms(seed, 1, -1)
