"""Tests for the counter-based streams: the vectorized Philox block function
must reproduce numpy's Philox generator bit for bit."""

import math

import numpy as np
import pytest

from forrlab import _rng
from forrlab._rng import (
    CHUNK,
    chunk_sizes,
    first_uniforms,
    mc_mean,
    mc_means,
    row_blocks,
    substream,
)


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


def test_mc_mean_matches_hand_written_accumulator():
    # Two full chunks and a ragged third: the merged estimator must equal
    # the per-chunk loop it replaced, bit for bit, in both fields.
    seed, samples = 11, 2 * CHUNK + 17

    def draw(gen, k):
        return gen.standard_normal(k) ** 3 + 0.25

    total = total_sq = 0.0
    for i, k in enumerate(chunk_sizes(samples)):
        vals = draw(substream(seed, i), k)
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
    mean = total / samples
    se = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)

    est = mc_mean(draw, samples, seed)
    assert len(chunk_sizes(samples)) == 3
    assert est.estimate == mean
    assert est.standard_error == se


def test_mc_mean_rejects_empty():
    with pytest.raises(ValueError):
        mc_mean(lambda gen, k: np.ones(k), 0, 0)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_means_matches_serial_accumulator_at_any_pool_size(workers,
                                                               monkeypatch):
    # Three jobs of two full chunks and a ragged third, with the pool at 1, 2
    # and 3 threads: every field must equal a serial per-chunk loop exactly.
    monkeypatch.setattr(_rng, "WORKERS", workers)
    samples = 2 * CHUNK + 17
    jobs = [(lambda gen, k: gen.standard_normal(k) ** 3 + 0.25, 11),
            (lambda gen, k: gen.uniform(size=k), 12),
            (lambda gen, k: np.exp(gen.standard_normal(k)), 2**64 + 3)]

    want = []
    for draw, seed in jobs:
        total = total_sq = 0.0
        for i, k in enumerate(chunk_sizes(samples)):
            vals = draw(substream(seed, i), k)
            total += float(vals.sum())
            total_sq += float(np.square(vals).sum())
        mean = total / samples
        se = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)
        want.append((mean, se))

    got = mc_means(jobs, samples)
    assert [(e.estimate, e.standard_error) for e in got] == want
    assert mc_means([], samples) == []


def test_mc_means_raises_a_draw_error():
    def broken(gen, k):
        raise RuntimeError("draw failed")
    with pytest.raises(RuntimeError, match="draw failed"):
        mc_means([(lambda gen, k: np.ones(k), 0), (broken, 1)], CHUNK + 1)


def test_row_blocks_cover_rows_in_order():
    width = 32
    step = _rng.BLOCK_BYTES // (8 * width)
    for rows in (0, 1, step - 1, step, step + 1, 3 * step - 5):
        blocks = row_blocks(rows, width)
        assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
        assert all(b.stop - b.start <= step for b in blocks)
    assert len(row_blocks(step + 1, width)) == 2
    # Rows wider than a block still advance one row at a time.
    assert row_blocks(2, _rng.BLOCK_BYTES) == [slice(0, 1), slice(1, 2)]
