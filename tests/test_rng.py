"""Tests for the counter-based streams: stream addressing, the protocol's
copy stream, and the chunked Monte Carlo estimator."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forrlab import _rng
from forrlab._rng import (
    CHUNK,
    PURPOSES,
    ahead,
    bernoulli_bits,
    chunk_sizes,
    derive,
    mc_means,
    row_blocks,
    substream,
    uniform_below,
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


@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_bernoulli_bits_equal_one_unblocked_draw(count):
    for p in (0.0, 0.3, 1.0):
        bits = bernoulli_bits(substream(9, 0), p, count)
        want = substream(9, 0).uniform(size=count) < p
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, want)


def test_bernoulli_bits_leave_the_stream_where_uniforms_do():
    # The raw words take what gen.uniform takes and leave a pending 32-bit
    # half alone: the draws after the bits are those after the uniforms.
    for count in (1, 5, CHUNK + 1):
        gen, ref = substream(4, 0), substream(4, 0)
        assert gen.integers(1 << 32, dtype=np.uint32) == ref.integers(
            1 << 32, dtype=np.uint32)
        bits = bernoulli_bits(gen, 0.7, count)
        assert np.array_equal(bits, ref.uniform(size=count) < 0.7)
        assert gen.integers(1 << 32, dtype=np.uint32) == ref.integers(
            1 << 32, dtype=np.uint32)
        assert gen.random() == ref.random()
        assert gen.integers(1 << 32, dtype=np.uint32) == ref.integers(
            1 << 32, dtype=np.uint32)


def as_uniform(words):
    """numpy's double of each raw word: (w >> 11) 2^-53."""
    return (words >> 11).astype(np.float64) * 2.0 ** -53


# Probabilities at the edges of the 2^-53 grid, outside [0, 1], and NaN.
EDGE_P = [0.0, 2.0 ** -53, 0.5, 1 - 2.0 ** -53, 1.0, 1.5, math.nan]


class TestUniformBelow:
    @pytest.mark.parametrize("p", [2.0 ** -53, 0.5, 1 - 2.0 ** -53, 0.3,
                                   0.02 + 0.33 * 0.25, 1e-300])
    def test_words_at_the_threshold(self, p):
        # The first step whose uniform is not below p, at both ends of its
        # 2^11 words, gives False; the step below it gives True.  For p on
        # the grid that first step's uniform equals p.
        step = math.ceil(p * 2.0 ** 53)
        words = np.array([step << 11, (step << 11) | 0x7FF,
                          (step - 1) << 11, ((step - 1) << 11) | 0x7FF],
                         dtype=np.uint64)
        if p * 2.0 ** 53 == step:
            assert as_uniform(words[0]) == p
        got = uniform_below(words, p)
        assert got.dtype == np.bool_
        assert got.tolist() == [False, False, True, True]
        assert np.array_equal(got, as_uniform(words) < p)

    @pytest.mark.parametrize("p", EDGE_P)
    def test_edge_probabilities(self, p):
        words = np.array([0, 1, 0x7FF, 0x800, 1 << 63, 2**64 - 0x801,
                          2**64 - 0x800, 2**64 - 1], dtype=np.uint64)
        want = as_uniform(words) < p
        assert np.array_equal(uniform_below(words, p), want)
        if p >= 1:
            assert want.all()
        elif not p > 0:  # 0 or NaN
            assert not want.any()
        rows = np.tile(words, (3, 1))
        assert np.array_equal(uniform_below(rows, np.full(3, p)),
                              np.tile(want, (3, 1)))

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_random_below_on_philox_streams(self, seed):
        p_values = EDGE_P + list(substream(100 + seed, 0).random(5))
        for p in p_values:
            words = substream(seed, 0).bit_generator.random_raw(1000)
            want = substream(seed, 0).random(1000) < p
            assert np.array_equal(uniform_below(words, p), want)
            out = np.empty(1000, dtype=np.uint8)
            assert uniform_below(words, p, out=out) is out
            assert np.array_equal(out, want)
        # One probability per row.
        p_rows = np.array(p_values)
        words = substream(seed, 0).bit_generator.random_raw((len(p_rows), 64))
        want = substream(seed, 0).random((len(p_rows), 64)) < p_rows[:, None]
        assert np.array_equal(uniform_below(words, p_rows), want)


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


@pytest.mark.parametrize("seed, index", [(0, 0), (5, 3), (2**64 + 7, 9),
                                         (2**127 + 9, 2**100 + 7),
                                         (2**128 - 1, 2**128 - 1)])
def test_substream_is_numpys_keyed_philox(seed, index):
    # The key holds the seed and the top counter words the index, with an
    # empty output buffer, as Philox(key=..., counter=...) builds them.
    got = substream(seed, index)
    words = [seed & (2**64 - 1), seed >> 64, index & (2**64 - 1), index >> 64]
    want = np.random.Generator(np.random.Philox(
        key=np.array(words[:2], dtype=np.uint64),
        counter=np.array([0, 0, *words[2:]], dtype=np.uint64)))
    a, b = got.bit_generator.state, want.bit_generator.state
    for part in ("key", "counter"):
        assert np.array_equal(a["state"][part], b["state"][part])
    assert np.array_equal(a["buffer"], b["buffer"])
    assert [a[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
        b[k] for k in ("buffer_pos", "has_uint32", "uinteger")]
    assert np.array_equal(got.integers(0, 2, 77, dtype=np.int8),
                          want.integers(0, 2, 77, dtype=np.int8))
    assert np.array_equal(got.random(1001), want.random(1001))


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

    est, = mc_means([(draw, seed)], samples)
    assert len(chunk_sizes(samples)) == 3
    assert est.estimate == mean
    assert est.standard_error == se


def test_mc_mean_rejects_empty():
    with pytest.raises(ValueError):
        mc_means([(lambda gen, k: np.ones(k), 0)], 0)


def test_mc_mean_sample_floor():
    assert _rng.MIN_SAMPLES == 10_000
    with pytest.raises(ValueError, match="at least 10000 samples, got 9999"):
        mc_means([(lambda gen, k: np.ones(k), 0)], 9_999)
    assert mc_means([(lambda gen, k: np.ones(k), 0)], 10_000) == [(1.0, 0.0)]


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


def chunk_index(gen: np.random.Generator) -> int:
    """The chunk i of a fresh ``substream(seed, i)`` (i below 2^64)."""
    return int(gen.bit_generator.state["state"]["counter"][2])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_mc_means_raises_the_error_of_a_failing_chunk(workers, monkeypatch):
    monkeypatch.setattr(_rng, "WORKERS", workers)
    threads = threading.active_count()

    def draw(gen, k):
        if chunk_index(gen) == 2:
            raise RuntimeError("chunk 2 failed")
        return np.ones(k)
    with pytest.raises(RuntimeError, match="^chunk 2 failed$"):
        mc_means([(draw, 5)], 5 * CHUNK)
    assert threading.active_count() == threads  # every thread joined


def test_no_chunk_starts_after_a_failure_on_one_thread(monkeypatch):
    monkeypatch.setattr(_rng, "WORKERS", 1)
    started = []

    def draw(gen, k):
        started.append(chunk_index(gen))
        if started[-1] == 2:
            raise RuntimeError("chunk 2 failed")
        return np.ones(k)
    with pytest.raises(RuntimeError, match="^chunk 2 failed$"):
        mc_means([(draw, 5), (draw, 6)], 5 * CHUNK)
    assert started == [0, 1, 2]


def test_an_interrupt_on_any_thread_reaches_the_caller(monkeypatch):
    # Whichever thread draws chunk 1 stops there; the interrupt is raised
    # on the calling thread once every thread is joined.
    monkeypatch.setattr(_rng, "WORKERS", 2)
    threads = threading.active_count()

    def draw(gen, k):
        if chunk_index(gen) == 1:
            raise KeyboardInterrupt
        return np.ones(k)
    with pytest.raises(KeyboardInterrupt):
        mc_means([(draw, 5)], 4 * CHUNK)
    assert threading.active_count() == threads


def test_every_chunk_is_drawn_once_under_contention(monkeypatch):
    # More threads than cores and a short switch interval, so the threads
    # race for the shared iterator: a chunk taken twice or lost would
    # change the estimate or the list of chunks drawn.
    samples = 40 * CHUNK + 3
    taken = []

    def draw(gen, k):
        i = chunk_index(gen)
        taken.append(i)
        return np.full(k, float(i))
    monkeypatch.setattr(_rng, "WORKERS", 1)
    want = mc_means([(draw, 3)], samples)
    taken.clear()
    monkeypatch.setattr(_rng, "WORKERS", 4)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: got.append(mc_means([(draw, 3)], samples)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(taken) == list(range(41))
    assert got == [want]


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


AHEAD_WORDS = sorted(set(range(10)) | {4 * 4**e + d for e in range(1, 10)
                                       for d in (-1, 1)})


@pytest.mark.parametrize("start", [0, 1, 2, 3])
def test_ahead_equals_drawing_and_discarding(start):
    # From a fresh stream and from after 1, 2 and 3 doubles of a 4-word
    # buffer, ahead(gen, w) reads on where gen would after w more doubles.
    for words in AHEAD_WORDS:
        gen = substream(5, start)
        gen.random(start)
        got = ahead(gen, words).random(6)
        ref = substream(5, start)
        ref.random(start + words)
        assert np.array_equal(got, ref.random(6)), words
        # gen itself has not moved.
        assert np.array_equal(gen.random(4), substream(5, start).random(
            start + 4)[start:])


@pytest.mark.parametrize("words", [0, 1, 3, 4, 5, 4 * 1000 - 1, 4 * 1000 + 1])
def test_ahead_keeps_a_pending_32_bit_half(words):
    # A uint32 draw leaves half a word pending; the copy must hand it out
    # next, as gen would, and then read on at the same words.
    gen, ref = substream(6, 0), substream(6, 0)
    for g in (gen, ref):
        g.random(2)
        g.integers(0, 1 << 32, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    copy = ahead(gen, words)
    ref.random(words)
    for g in (copy, ref):
        assert g.bit_generator.state["has_uint32"] == 1
    assert (copy.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist() ==
            ref.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist())
    assert np.array_equal(copy.integers(0, 2, size=9, dtype=np.int8),
                          ref.integers(0, 2, size=9, dtype=np.int8))
    assert copy.random() == ref.random()


def test_ahead_rejects_negative_words_and_other_generators():
    with pytest.raises(ValueError, match="nonnegative"):
        ahead(substream(0, 0), -1)
    with pytest.raises(ValueError, match="Philox"):
        ahead(np.random.default_rng(0), 4)
