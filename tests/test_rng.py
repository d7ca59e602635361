"""Tests for the counter-based streams: stream addressing, the protocol's
copy stream, and the chunked Monte Carlo estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forrlab import _rng
from forrlab._rng import (
    CHUNK,
    PURPOSES,
    chunk_sizes,
    derive,
    mc_mean,
    mc_means,
    row_blocks,
    substream,
)
from forrlab.forrelation_dist import ForrParams, forr, uniform_sign_rows
from forrlab.protocol import QuantumProtocolConfig, run_quantum_protocol


def test_protocol_copies_read_one_stream_in_order():
    # Copy t's bit is uniform t of substream(seed, 0), drawn in CHUNK blocks:
    # a run over a block boundary must start with a shorter run's bits and
    # equal one unblocked draw.
    params = ForrParams(8)
    gen = substream(3, 0)
    x = uniform_sign_rows(gen, (params.input_length,))
    y = uniform_sign_rows(gen, (params.input_length,))
    p_one = 0.5 + forr((x * y).astype(np.float64)) / 2
    runs = [run_quantum_protocol(
                x, y, QuantumProtocolConfig(params, copies=copies,
                                            seed=2**64 + 5)).per_copy_bits
            for copies in (CHUNK + 37, CHUNK - 3)]
    want = substream(2**64 + 5, 0).uniform(size=CHUNK + 37) < p_one
    assert np.array_equal(runs[0], want)
    assert np.array_equal(runs[0][:CHUNK - 3], runs[1])


TRIPLE_PARTS = (st.integers(0, 2**64 - 1), st.sampled_from(sorted(PURPOSES)),
                st.integers(0, 2**56 - 1))
PART_BITS = (64, None, 56)


@given(st.tuples(*TRIPLE_PARTS), st.data())
@settings(max_examples=300, deadline=None)
def test_derive_gives_distinct_triples_distinct_seeds(a, data):
    # b keeps, redraws or flips one bit of each part of a, so triples one
    # bit apart are tried as well as distant ones.
    b = []
    for v, part, bits in zip(a, TRIPLE_PARTS, PART_BITS):
        options = [st.just(v), part]
        if bits:
            options.append(st.integers(0, bits - 1).map(
                lambda k, v=v: v ^ (1 << k)))
        b.append(data.draw(st.one_of(options)))
    b = tuple(b)
    assert (derive(*a) == derive(*b)) == (a == b)
    assert derive(*a) >= 2**120  # never a library seed below 2^64


@given(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
       st.one_of(st.integers(max_value=-1), st.integers(min_value=2**56)))
@settings(max_examples=100, deadline=None)
def test_derive_rejects_out_of_range(bad_seed, bad_index):
    with pytest.raises(ValueError, match="seed"):
        derive(bad_seed, "instance", 0)
    with pytest.raises(ValueError, match="index"):
        derive(0, "instance", bad_index)
    with pytest.raises(KeyError):
        derive(0, "nonsense", 0)


@pytest.mark.parametrize("seed, index", [(2**128, 0), (5, 2**128), (-1, 0),
                                         (0, -1)])
def test_substream_rejects_what_would_alias(seed, index):
    # Each would otherwise draw the stream of its value mod 2^128.
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\^128\), got"):
        substream(seed, index)


def test_substream_range_ends_are_distinct_streams():
    top = 2**128 - 1
    draws = {tuple(substream(seed, index).integers(0, 2**63, size=4))
             for seed, index in ((0, 0), (top, 0), (5, 0), (5, top))}
    assert len(draws) == 4


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


def test_mc_mean_sample_floor():
    assert _rng.MIN_SAMPLES == 10_000
    with pytest.raises(ValueError, match="at least 10000 samples, got 9999"):
        mc_mean(lambda gen, k: np.ones(k), 9_999, 0)
    assert mc_mean(lambda gen, k: np.ones(k), 10_000, 0) == (1.0, 0.0)


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
