"""Tests for the forrelation functional and its input distributions.

The forrelation oracle here is the O(N^2) double sum with an explicitly
built sign matrix, independent of the transform path under test.
Statistical checks use the 3/5 sigma gates stated per property.
"""

import itertools
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forrlab import forrelation_dist
from forrlab._rng import (BLOCK_BYTES, CHUNK, ahead, chunk_sizes, row_blocks,
                          substream)
from forrlab.boolean_fourier import (
    FourierSpectrum,
    fwht,
    fwht_inplace,
    multilinear_eval,
    spectrum,
)
from forrlab.errors import SamplingFailureError
from forrlab.forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    LiftedInstance,
    chunked,
    classify,
    forr,
    forrelation_rows,
    gaussian_moment,
    gaussian_rows,
    generate_instance,
    instance_rows,
    lifted_rows,
    moment_products,
    moment_sums,
    planted_instance,
    round_rows,
    standard_normal_rows,
    truncate,
    uniform_sign_rows,
)
from forrlab.protocol import protocol_H, random_protocol_partition


def forr_direct(z: np.ndarray) -> float:
    """O(N^2) double-sum oracle with an explicit sign matrix."""
    z = np.asarray(z, dtype=float)
    N = z.shape[0] // 2
    i = np.arange(N)[:, None].astype(np.uint64)
    j = np.arange(N)[None, :].astype(np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(i & j).astype(np.int64) % 2)
    return float(z[:N] @ signs @ z[N:]) / (N * math.sqrt(N))


class TestParams:
    def test_eps_derivation(self):
        p = ForrParams(64)
        assert p.eps == pytest.approx(1.0 / (50.0 * math.log(64)))
        assert p.eps == pytest.approx(0.00481, abs=5e-6)
        assert p.n == 6
        assert p.input_length == 128

    def test_validation(self):
        for bad in (0, 2, 12, 100):
            with pytest.raises(ValueError):
                ForrParams(bad)
        with pytest.raises(ValueError):
            ForrParams(16, eps_override=2.0)

    def test_override(self):
        assert ForrParams(16, eps_override=0.25).eps == 0.25


class TestForr:
    def test_all_ones_first_half(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([np.ones(8), 1.0 - 2 * rng.integers(0, 2, 8)])
        assert forr(z) == pytest.approx(z[8] / math.sqrt(8), abs=1e-12)

    def test_antisymmetry_in_first_half(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=32)
        flipped = z.copy()
        flipped[:16] *= -1
        assert forr(flipped) == pytest.approx(-forr(z), abs=1e-12)

    @pytest.mark.parametrize("two_n", [8, 64, 512, 2048])
    def test_matches_double_sum_oracle(self, two_n):
        rng = np.random.default_rng(two_n)
        for _ in range(3):
            z = (1.0 - 2 * rng.integers(0, 2, size=two_n)).astype(float)
            assert abs(forr(z) - forr_direct(z)) <= 1e-9

    def test_all_ones_product(self):
        for N in (4, 16, 64):
            z = np.ones(2 * N)
            assert forr(z) == pytest.approx(1.0 / math.sqrt(N), abs=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(3)
        rows = (1.0 - 2 * rng.integers(0, 2, size=(10, 32))).astype(float)
        vals = forr(rows)
        assert vals.shape == (10,)
        for r, v in zip(rows, vals):
            assert v == pytest.approx(forr(r), abs=1e-14)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            forr(np.ones(12))
        with pytest.raises(ValueError):
            forr(np.ones(7))

    @given(st.integers(0, 2 ** 31), st.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=60, deadline=None)
    def test_bounded_on_sign_inputs(self, seed, N):
        z = 1.0 - 2 * np.random.default_rng(seed).integers(0, 2, size=2 * N)
        assert abs(forr(z)) <= 1.0 + 1e-12


class TestForrBlocks:
    """forr scores rows one row block at a time; every row must keep the
    bits of a one-row call, whatever its dtype or the block edges."""

    @staticmethod
    def rows(dtype, N: int, k: int) -> np.ndarray:
        if dtype is np.float64:
            return gaussian_rows(substream(53, k), ForrParams(N), k)
        signs = uniform_sign_rows(substream(53, k), (k, 2 * N))
        return signs > 0 if dtype is np.bool_ else signs

    @staticmethod
    def reference(rows: np.ndarray) -> np.ndarray:
        """forr as a float64 cast, a row-major ``fwht`` and a row sum."""
        N = rows.shape[-1] // 2
        first = rows[:, :N].astype(np.float64)
        second = rows[:, N:].astype(np.float64)
        return (fwht(first) * second).sum(axis=1) / (N * math.sqrt(N))

    # At N = 16384 a block holds 2 rows.
    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.float64])
    @pytest.mark.parametrize("N", [16, 64, 1024, 16384])
    def test_stack_equals_one_row_calls(self, N, dtype):
        block = BLOCK_BYTES // (8 * 2 * N)
        for k in (1, block - 1, block, block + 1, 3 * block - 5):
            rows = self.rows(dtype, N, k)
            got = forr(rows)
            assert got.shape == (k,)
            assert np.array_equal(got, [forr(row) for row in rows]), k
            assert np.array_equal(got, self.reference(rows)), k

    @pytest.mark.parametrize("dtype", [np.int8, np.bool_, np.float64])
    def test_leading_axes(self, dtype):
        N = 64
        block = BLOCK_BYTES // (8 * 2 * N)
        stack = self.rows(dtype, N, 3 * (block + 1)).reshape(
            3, block + 1, 2 * N)
        got = forr(stack)
        assert got.shape == (3, block + 1)
        for a in range(3):
            assert np.array_equal(got[a], [forr(row) for row in stack[a]])
        # A non-contiguous view is scored as its copy would be.
        assert np.array_equal(forr(stack.transpose(1, 0, 2)), got.T)
        assert isinstance(forr(stack[0, 0]), float)

    def test_memory_stays_near_one_block(self):
        # The float64 output and one block's temporaries, never the
        # chunk's (CHUNK, 2N) float64 cast (32 MiB at N = 64).
        rows = uniform_sign_rows(substream(2, 0), (CHUNK, 128))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            out = forr(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == CHUNK * 8
        assert peak <= out.nbytes + 8 * BLOCK_BYTES


class TestTruncate:
    def test_clamps(self):
        assert truncate(np.array([1.7]))[0] == 1.0
        assert truncate(np.array([-2.3]))[0] == -1.0
        assert truncate(np.array([-0.3]))[0] == -0.3

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_bounded(self, values):
        v = np.array(values)
        once = truncate(v)
        assert np.all(np.abs(once) <= 1.0)
        assert np.array_equal(truncate(once), once)


class TestGaussianSampler:
    def test_standard_normal_moments(self):
        from forrlab.forrelation_dist import standard_normal_rows
        z = standard_normal_rows(substream(41, 0), 50_000, 8).ravel()
        n = z.size
        assert abs(z.mean()) <= 5 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 5 * math.sqrt(2.0 / n)
        # excess kurtosis of a normal is 0; se ~ sqrt(24/n)
        kurt = float(((z - z.mean()) ** 4).mean()) / z.var() ** 2 - 3.0
        assert abs(kurt) <= 5 * math.sqrt(24.0 / n)
        assert np.all(np.isfinite(z))

    def test_second_half_is_transform_of_first(self):
        p = ForrParams(16)
        rows = chunked(5, 50, lambda gen, k: gaussian_rows(gen, p, k))
        assert np.allclose(rows[:, 16:], fwht(rows[:, :16]) / 4.0, atol=1e-12)

    def test_marginal_variance(self):
        p = ForrParams(16)
        rows = chunked(6, 1_000_000, lambda gen, k: gaussian_rows(gen, p, k))
        for col in (0, 3, 17, 30):
            var = rows[:, col].var()
            se = p.eps * math.sqrt(2.0 / rows.shape[0])
            assert abs(var - p.eps) <= 5 * se

    def test_cross_covariance_sign_pattern(self):
        p = ForrParams(16)
        rows = chunked(7, 400_000, lambda gen, k: gaussian_rows(gen, p, k))
        for i, j in ((0, 0), (1, 2), (5, 13), (7, 7)):
            prod = rows[:, i] * rows[:, 16 + j]
            want = p.eps * (-1) ** bin(i & j).count("1") / 4.0
            se = prod.std() / math.sqrt(rows.shape[0])
            assert abs(prod.mean() - want) <= 5 * se

    def test_single_draw_matches_first_of_batch(self):
        # A row's bits do not depend on how many rows its chunk draws.
        p = ForrParams(8)
        one = chunked(11, 1, lambda gen, k: gaussian_rows(gen, p, k))
        batch = chunked(11, 3, lambda gen, k: gaussian_rows(gen, p, k))
        assert np.array_equal(one[0], batch[0])

    def test_deterministic(self):
        p = ForrParams(8)
        a = chunked(12, 100, lambda gen, k: gaussian_rows(gen, p, k))
        b = chunked(12, 100, lambda gen, k: gaussian_rows(gen, p, k))
        assert np.array_equal(a, b)


class TestSignSampler:
    def test_signs_and_shape(self):
        p = ForrParams(8)
        rows = chunked(1, 100, lambda gen, k: forrelation_rows(gen, p, k))
        assert rows.dtype == np.int8
        assert set(np.unique(rows)) <= {-1, 1}

    def test_coordinate_means_vanish(self):
        p = ForrParams(8)
        rows = chunked(2, 1_000_000,
                       lambda gen, k: forrelation_rows(gen, p, k))
        se = 1.0 / math.sqrt(rows.shape[0])
        assert np.max(np.abs(rows.mean(axis=0))) <= 5 * se

    def test_mean_forrelation_exceeds_half_eps(self):
        p = ForrParams(64)
        rows = chunked(3, 200_000, lambda gen, k: forrelation_rows(gen, p, k))
        vals = forr(rows.astype(np.float64))
        se = vals.std() / math.sqrt(len(vals))
        assert vals.mean() >= p.eps / 2 - 3 * se

    def test_conditional_mean_transfer_low_degree(self):
        # For a multilinear F of degree <= 2 on 8 coordinates, paired
        # estimates under the sign distribution and under truncate(gaussian)
        # agree; the rounding step is mean-preserving coordinatewise.
        p = ForrParams(4)
        gen = substream(99, 0)
        coeffs = np.zeros(256)
        coeffs[0b00000011] = 0.7
        coeffs[0b01000001] = -0.4
        coeffs[0b00010000] = 0.2
        F = FourierSpectrum(8, coeffs)
        z = gaussian_rows(gen, p, 60_000)
        t = truncate(z)
        a = multilinear_eval(F, t)
        b = multilinear_eval(F, round_rows(gen, z).astype(np.float64))
        diff = b - a
        se = diff.std() / math.sqrt(len(diff))
        assert abs(diff.mean()) <= 5 * se


class TestLiftedSampler:
    def test_marginals_uniform_mean(self):
        p = ForrParams(8)
        pairs = chunked(4, 100_000, lambda gen, k: np.stack(
            lifted_rows(gen, p, k), axis=1))
        x, y = pairs[:, 0], pairs[:, 1]
        se = 1.0 / math.sqrt(x.shape[0])
        assert np.max(np.abs(x.mean(axis=0))) <= 5 * se
        assert np.max(np.abs(y.mean(axis=0))) <= 5 * se

    def test_product_recovers_hidden_sample(self):
        p = ForrParams(8)
        x, y = lifted_rows(substream(5, 0), p, 1)
        gen = substream(5, 0)
        z = forrelation_rows(gen, p, 1)[0]
        assert np.array_equal(x[0] * y[0], z)

    def test_high_forrelation_event_probability(self):
        p = ForrParams(64)
        pairs = chunked(6, 50_000, lambda gen, k: np.stack(
            lifted_rows(gen, p, k), axis=1))
        x, y = pairs[:, 0], pairs[:, 1]
        vals = forr((x * y).astype(np.float64))
        rate = float((vals >= p.eps / 4).mean())
        se = math.sqrt(rate * (1 - rate) / len(vals))
        assert rate >= p.eps / 4 - 3 * se


class TestMoments:
    def test_empty_sets_give_exact_one(self):
        p = ForrParams(16)
        est = gaussian_moment(p, [], [], 10_000, seed=1)
        assert est.estimate == 1.0
        assert est.standard_error == 0.0

    def test_pair_moment_sign_pattern(self):
        p = ForrParams(16)
        for i, j in ((0, 0), (3, 5), (10, 6)):
            est = gaussian_moment(p, [i], [j], 300_000, seed=10 + i + j)
            want = p.eps * (-1) ** bin(i & j).count("1") / 4.0
            assert abs(est.estimate - want) <= 5 * est.standard_error

    def test_unequal_sizes_vanish(self):
        p = ForrParams(16)
        est = gaussian_moment(p, [0, 1], [2], 100_000, seed=20)
        assert abs(est.estimate) <= 5 * est.standard_error

    def test_odd_total_size_vanishes(self):
        p = ForrParams(16)
        est = gaussian_moment(p, [0, 1, 2], [4, 5], 100_000, seed=21)
        assert abs(est.estimate) <= 5 * est.standard_error

    def test_magnitude_cap(self):
        p = ForrParams(16)
        for size, seed in (((0, 1), 30), ((2, 5), 31)):
            est = gaussian_moment(p, list(size), [0, 1], 100_000, seed=seed)
            assert abs(est.estimate) <= p.eps ** 2 + 5 * est.standard_error

    def test_preconditions(self):
        p = ForrParams(16)
        with pytest.raises(ValueError):
            gaussian_moment(p, [0], [0], 5000, seed=0)
        with pytest.raises(ValueError):
            gaussian_moment(p, [16], [0], 10_000, seed=0)


class TestRowBlocking:
    """Drawing a chunk in row blocks must not change a single value."""

    params = ForrParams(16)
    block = BLOCK_BYTES // (8 * 32)  # rows of 2N = 32 float64 per block
    # Around the first and second block boundaries, then runs of three and
    # six blocks that end part-way into their last block.
    sizes = [1, block - 1, block, block + 1, 2 * block - 1, 2 * block,
             2 * block + 1, 3 * block - 5, 6 * block - 5]

    @pytest.mark.parametrize("k", sizes)
    @pytest.mark.parametrize("s_set, t_set", [([3], [5]), ([0, 7], [2]),
                                              ([], [])])
    def test_moment_products_equal_unblocked_products(self, k, s_set, t_set):
        got = shared_rows(self.params, [(s_set, t_set)], substream(40, k), k)
        want = moment_reference(self.params, s_set, t_set)(substream(40, k), k)
        assert got.shape == (1, k)
        assert np.array_equal(got[0], want)

    @pytest.mark.parametrize("k", sizes)
    def test_round_rows_equals_unblocked_reference(self, k):
        rows = gaussian_rows(substream(41, k), self.params, k) * 20.0
        gen, ref_gen = substream(42, k), substream(42, k)
        want = np.where(ref_gen.uniform(size=rows.shape) <
                        (1.0 + truncate(rows)) / 2.0, 1, -1).astype(np.int8)
        got = round_rows(gen, rows)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)
        # Both generators stand at the same place in the stream afterwards.
        assert gen.uniform() == ref_gen.uniform()


class TestBlockedSampler:
    """forrelation_rows draws row blocks at addressed words of one stream;
    it must equal the unblocked draw and leave the stream where it would."""

    @pytest.mark.parametrize("skip", [0, 3])
    @pytest.mark.parametrize("N", [4, 16, 64, 1024])
    def test_equals_unblocked_draw(self, N, skip):
        params = ForrParams(N)
        block = BLOCK_BYTES // (8 * params.input_length)
        for k in (1, block - 1, block, block + 1, 3 * block - 5):
            # skip = 3 starts one word before the end of Philox's buffer.
            gen, ref = substream(46, k), substream(46, k)
            gen.random(skip)
            ref.random(skip)
            got = forrelation_rows(gen, params, k)
            # The rounding uniforms first, then the Gaussians after them.
            gauss = ahead(ref, 2 * N * k)
            want = round_rows(ref, gaussian_rows(gauss, params, k))
            assert got.dtype == np.int8
            assert np.array_equal(got, want), k
            assert (gen.integers(0, 2, dtype=np.int8) ==
                    gauss.integers(0, 2, dtype=np.int8))
            assert gen.random() == gauss.random()

    @pytest.mark.parametrize("N", [4, 8, 16, 64])
    def test_uniform_sign_rows_row_offsets(self, N):
        # int8 draws take 8 values per 64-bit word, so row r of a (k, 2N)
        # draw starts at word r N / 4: what blocking advantage relies on.
        rows = uniform_sign_rows(substream(47, N), (37, 2 * N))
        for r in range(37):
            alone = uniform_sign_rows(ahead(substream(47, N), r * N // 4),
                                      (2 * N,))
            assert np.array_equal(rows[r], alone), r

    def test_memory_stays_near_one_block(self):
        # The int8 output and a few block temporaries, never the chunk's
        # (CHUNK, 2N) float64 rows (64 MiB at N = 64).
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            out = forrelation_rows(substream(1, 0), ForrParams(64), CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 4 << 20
        assert peak <= out.nbytes + 8 * BLOCK_BYTES


def moment_reference(params: ForrParams, s_set, t_set):
    """The moment draw from full coupled-Gaussian rows."""
    cols = np.array(list(s_set) + [params.N + j for j in t_set], dtype=int)
    return lambda gen, k: gaussian_rows(gen, params, k)[:, cols].prod(axis=1)


def moment_sets(N: int) -> dict[str, tuple[list[int], list[int]]]:
    return {
        # S only: no set reads the second half, so nothing is transformed.
        "t_empty": ([N // 2 + 1, 0], []),
        "s_empty": ([], [1, N - 1]),
        "three_by_three": ([N - 1, 0, N // 2], [2, N // 2 + 1, 1]),
    }


class TestMomentFastPath:
    """moment_products gathers only the factors a product reads, and
    transforms only when some T is nonempty; every value must still equal
    the product over full gaussian_rows."""

    @pytest.mark.parametrize("case", ["t_empty", "s_empty", "three_by_three"])
    @pytest.mark.parametrize("N", [4, 16, 64, 1024])
    def test_equals_full_rows(self, N, case):
        params = ForrParams(N)
        s_set, t_set = moment_sets(N)[case]
        block = BLOCK_BYTES // (8 * params.input_length)
        for k in (1, block - 1, block + 1, 3 * block - 5):
            got = shared_rows(params, [(s_set, t_set)], substream(43, k), k)
            want = moment_reference(params, s_set, t_set)(substream(43, k), k)
            assert got.shape == (1, k)
            assert np.array_equal(got[0], want)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 32, 33])
    def test_standard_normal_rows_equals_reference(self, n):
        # One unblocked draw; k rows span three blocks and part of a fourth.
        k = 3 * (BLOCK_BYTES // (8 * n)) + 5
        want = substream(45, n).standard_normal(size=(k, n))
        got = standard_normal_rows(substream(45, n), k, n)
        assert np.array_equal(got, want)

    def test_gaussian_moment_equals_reference_estimate(self):
        params = ForrParams(16)
        s_set, t_set = moment_sets(16)["three_by_three"]
        samples = 2 * CHUNK + 17
        got = gaussian_moment(params, s_set, t_set, samples, 44)
        # The reference products summed per row block, the block sums added
        # in block order within a chunk and the chunk sums in chunk order.
        total = total_sq = 0.0
        for i, k in enumerate(chunk_sizes(samples)):
            row = moment_reference(params, s_set, t_set)(substream(44, i), k)
            chunk = chunk_sq = 0.0
            for b in row_blocks(k, params.input_length):
                chunk += float(row[b].sum())
                chunk_sq += float(np.square(row[b]).sum())
            total += chunk
            total_sq += chunk_sq
        mean = total / samples
        error = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)
        assert got.estimate == mean
        assert got.standard_error == error


def shared_sets(N: int, wide: bool) -> list[tuple[list[int], list[int]]]:
    """Sets for the shared moment draw: S empty, T empty, |S| = |T| = 3,
    both empty, and two repeats.  Their T union has three columns; ``wide``
    adds pair moments that take it to 16."""
    s3, t3 = moment_sets(N)["three_by_three"]
    sets = [([], t3[:2]), (s3[:2], []), (s3, t3), ([], []), (s3, t3),
            ([], t3[:2])]
    if wide:
        sets += [([j % 3], [j]) for j in range(0, N, N // 16)]
    return sets


def degree_sets(N: int, t_cols: list[int], many: int):
    """Three sets of each degree |S| + |T| from 0 to 6, and ``many`` of
    degree 2, in shuffled order: S from [0, N), T from ``t_cols``."""
    gen = np.random.default_rng(N)
    sets = []
    for degree in range(7):
        for _ in range(many if degree == 2 else 3):
            t_size = int(gen.integers(min(degree, len(t_cols)) + 1))
            sets.append((
                gen.choice(N, size=degree - t_size, replace=False).tolist(),
                gen.choice(t_cols, size=t_size, replace=False).tolist()))
    return [sets[i] for i in gen.permutation(len(sets))]


def shared_rows(params: ForrParams, sets, gen, k: int) -> np.ndarray:
    """Every set's k products from one moment_products draw, as an array."""
    rows = np.empty((len(sets), k))
    for block, members, products in moment_products(params, sets)(gen, k):
        rows[members, block] = products
    return rows


class TestSharedMomentDraw:
    """moment_products draws the Gaussian rows once for many sets; each
    set's products must equal its own one-set draw, and moment_sums must
    reduce them without holding a (sets, k) array."""

    # Every case has a nonempty T, so each takes the whole transform in
    # place.
    @pytest.mark.parametrize("N, wide, whole", [(16, False, True),
                                                (64, False, True),
                                                (16, True, True),
                                                (64, True, True)])
    def test_rows_equal_one_set_draws(self, N, wide, whole, monkeypatch):
        params = ForrParams(N)
        sets = shared_sets(N, wide)
        block = BLOCK_BYTES // (8 * params.input_length)
        calls = []
        monkeypatch.setattr(
            forrelation_dist, "fwht_inplace",
            lambda table: calls.append(1) or fwht_inplace(table))
        for k in (block - 1, block, block + 1, CHUNK):
            calls.clear()
            rows = shared_rows(params, sets, substream(70, k), k)
            assert bool(calls) is whole
            for m, (s_set, t_set) in enumerate(sets):
                want = shared_rows(params, [(s_set, t_set)], substream(70, k),
                                   k)[0]
                assert np.array_equal(rows[m], want), (k, m)
            assert np.array_equal(rows[2], rows[4])  # repeated sets
            assert np.array_equal(rows[0], rows[5])
            assert np.all(rows[3] == 1.0)

    @pytest.mark.parametrize("wide", [False, True])
    def test_sums_match_exact_sums_of_rows(self, wide):
        params = ForrParams(16)
        sets = shared_sets(16, wide)
        block = BLOCK_BYTES // (8 * params.input_length)
        for k in (block - 1, block, block + 1, CHUNK):
            rows = shared_rows(params, sets, substream(71, k), k)
            total, squares = moment_sums(params, sets)(substream(71, k), k)
            assert len(total) == len(squares) == len(sets)
            for m, row in enumerate(rows):
                want = math.fsum(row)
                assert abs(total[m] - want) <= 1e-12 * abs(want), (k, m)
                want_sq = math.fsum(row * row)
                assert abs(squares[m] - want_sq) <= 1e-12 * want_sq, (k, m)

    # Every T column at N = 16, and three at N = 64: either way some set
    # reads the second half, so the whole transform runs in place.
    @pytest.mark.parametrize("N, t_cols, whole", [(16, range(16), True),
                                                  (64, [5, 17, 40], True)])
    def test_degree_groups_equal_per_set_products(self, N, t_cols, whole,
                                                  monkeypatch):
        params = ForrParams(N)
        block = BLOCK_BYTES // (8 * params.input_length)
        per = BLOCK_BYTES // (16 * block)  # sets in one full-block gather
        sets = degree_sets(N, list(t_cols), per + 5)
        calls = []
        monkeypatch.setattr(
            forrelation_dist, "fwht_inplace",
            lambda table: calls.append(1) or fwht_inplace(table))
        for k in (block - 1, block, block + 1, CHUNK):
            full = gaussian_rows(substream(72, k), params, k)
            want = np.array([full[:, s_set + [N + t for t in t_set]].prod(
                axis=1) for s_set, t_set in sets])
            calls.clear()  # gaussian_rows transforms in place too
            items = [(b, list(members), products.copy())
                     for b, members, products
                     in moment_products(params, sets)(substream(72, k), k)]
            assert bool(calls) is whole
            # Blocks in order, every set once per block, and the degree-2
            # group in two gathers.
            blocks = row_blocks(k, params.input_length)
            assert list(dict.fromkeys(b.start for b, _, _ in items)) == [
                b.start for b in blocks]
            for b in blocks:
                here = [(m, p) for got, m, p in items if got == b]
                assert sorted(m for ms, _ in here for m in ms) == list(
                    range(len(sets)))
                assert max(len(ms) for ms, _ in here) <= per
                assert sum(1 for ms, _ in here
                           if len(sets[ms[0]][0] + sets[ms[0]][1]) == 2) == 2
                for ms, products in here:
                    assert np.array_equal(products, want[ms, b]), (k, b)
            # Sums per block in block order, as Python floats.
            total, squares = [0.0] * len(sets), [0.0] * len(sets)
            for b in blocks:
                for m, row in enumerate(want[:, b]):
                    total[m] += float(row.sum())
                    squares[m] += float(np.square(row).sum())
            got = moment_sums(params, sets)(substream(72, k), k)
            assert got.total == total and got.squares == squares, k

    def test_refuses_indices_outside_the_half(self):
        params = ForrParams(16)
        with pytest.raises(ValueError, match=r"^T indices must lie in"):
            moment_sums(params, [([0], [1]), ([2], [16])])
        with pytest.raises(ValueError, match=r"^S indices must lie in"):
            moment_products(params, [([-1], [])])

    def test_memory_stays_near_one_block(self):
        # 46 sets, as verify-moments checks, over a full chunk at N = 64:
        # one block's buffers and transform temporaries, never a (46, k)
        # array of products (12 MiB here).
        params = ForrParams(64)
        gen = np.random.default_rng(5)
        sets = [(gen.choice(64, size=s, replace=False).tolist(),
                 gen.choice(64, size=t, replace=False).tolist())
                for s, t in gen.integers(0, 4, size=(46, 2))]
        draw = moment_sums(params, sets)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            sums = draw(substream(1, 0), CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sums.total) == 46
        assert peak <= 4 * BLOCK_BYTES


class TestDrawScratch:
    """A draw makes its block buffers on each call: calls on several
    threads must not see each other's buffers, and the buffers stay near
    one block whatever the chunk length."""

    def test_threaded_draws_equal_serial_calls(self):
        # Four threads and a short switch interval, so draws on different
        # substreams interleave block by block.
        params = ForrParams(16)

        def signs(gen, k):
            return forrelation_rows(gen, params, k)

        draws = {"moments": moment_sums(params, [([3], [5])]),
                 "s_only": moment_sums(params, [([3, 9], [])]),
                 "shared": moment_sums(params, shared_sets(16, True)),
                 "signs": signs}
        k = 4 * BLOCK_BYTES // (8 * params.input_length) + 7
        jobs = [(name, draw, i) for i in range(4)
                for name, draw in draws.items()]
        serial = [draw(substream(62, i), k) for _, draw, i in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(draw, substream(62, i), k)
                           for _, draw, i in jobs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (name, _, i), got, want in zip(jobs, threaded, serial):
            assert np.array_equal(got, want), (name, i)

    def test_one_set_memory_stays_near_one_block(self):
        # One block's buffers and transform temporaries, never a chunk's
        # rows or products.
        draw = moment_sums(ForrParams(64), [([1], [2])])
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            sums = draw(substream(1, 0), CHUNK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sums.total) == 1
        assert peak <= 4 * BLOCK_BYTES


class TestInstances:
    def test_classify_thresholds(self):
        p = ForrParams(64)
        assert classify(p, p.eps / 4) is Label.YES
        assert classify(p, p.eps / 8) is Label.NO
        assert classify(p, p.eps / 6) is Label.OUTSIDE_PROMISE

    def test_promise_no_label_by_construction(self):
        p = ForrParams(16)
        for seed in range(5):
            inst = generate_instance(p, InstanceMode.PROMISE_NO, seed)
            assert inst.label is Label.NO

    def test_promise_yes_label_by_construction(self):
        p = ForrParams(16)
        for seed in range(5):
            inst = generate_instance(p, InstanceMode.PROMISE_YES, seed)
            assert inst.label is Label.YES

    def test_label_always_recomputed(self):
        p = ForrParams(64)
        for seed in range(10):
            inst = generate_instance(p, InstanceMode.UNIFORM_NO, seed)
            z = (inst.x.signs * inst.y.signs).astype(np.float64)
            assert inst.forr_value == pytest.approx(float(forr(z)), abs=1e-12)
            assert inst.label is classify(p, inst.forr_value)

    def test_planted_concentrates_near_point_eight(self):
        p = ForrParams(64)
        vals = [generate_instance(p, InstanceMode.PLANTED_YES, s).forr_value
                for s in range(1000)]
        inside = np.mean([0.7 <= v <= 0.9 for v in vals])
        assert inside >= 0.99

    def test_planted_strength_sweep(self):
        p = ForrParams(64)
        for strength, lo, hi in ((-1.0, -0.9, -0.7), (0.0, -0.15, 0.15),
                                 (0.5, 0.25, 0.55), (1.0, 0.7, 0.9)):
            vals = [planted_instance(p, strength, s).forr_value
                    for s in range(40)]
            assert lo <= np.mean(vals) <= hi

    def test_rejection_cap(self):
        p = ForrParams(16)
        with pytest.raises(SamplingFailureError):
            generate_instance(p, InstanceMode.PROMISE_YES, 0, max_attempts=0)

    def test_json_roundtrip(self):
        p = ForrParams(16)
        inst = generate_instance(p, InstanceMode.PLANTED_YES, 3)
        back = LiftedInstance.from_json(inst.to_json())
        assert back == inst
        obj = json.loads(inst.to_json())
        assert set(obj) == {"N", "eps", "x", "y", "forr", "label"}


def one_at_a_time(params, mode, seed, strength=1.0):
    """Reference generator: one instance on its own, every transform a
    one-row call, drawing z1, the flips, x (planted); x, y (uniform and
    promise_no); forrelation_rows, x (promise_yes).  Returns (x, y, forr,
    attempts)."""
    gen = substream(seed, 0)
    N = params.N
    for attempt in itertools.count(1):
        if mode is InstanceMode.PLANTED_YES:
            z1 = uniform_sign_rows(gen, (N,))
            aligned = np.where(fwht(z1.astype(np.float64)) >= 0, 1, -1)
            flips = round_rows(gen, np.full((1, N), float(strength)))[0]
            z = np.concatenate([z1, aligned.astype(np.int8) * flips])
            x = uniform_sign_rows(gen, (2 * N,))
            y = x * z
        elif mode is InstanceMode.PROMISE_YES:
            z = forrelation_rows(gen, params, 1)[0]
            x = uniform_sign_rows(gen, (2 * N,))
            y = x * z
        else:
            x = uniform_sign_rows(gen, (2 * N,))
            y = uniform_sign_rows(gen, (2 * N,))
        value = float(forr((x * y).astype(np.float64)))
        label = classify(params, value)
        if (mode is InstanceMode.PROMISE_YES and label is not Label.YES or
                mode is InstanceMode.PROMISE_NO and label is not Label.NO):
            continue
        return x, y, value, attempt


MODES = list(InstanceMode)
BLOCK_MODES = {
    **{m.value: [m] for m in MODES},
    "amplified": [InstanceMode.PLANTED_YES, InstanceMode.UNIFORM_NO],
    "mixed": MODES,
}


class TestInstanceBlocks:
    @pytest.mark.parametrize("N", [4, 16, 64, 1024])
    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    @pytest.mark.parametrize("kind", BLOCK_MODES)
    def test_block_equals_one_at_a_time(self, N, k, kind):
        params = ForrParams(N)
        cycle = BLOCK_MODES[kind]
        modes = [cycle[i % len(cycle)] for i in range(k)]
        seeds = [1000 * N + 10 * k + i for i in range(k)]
        xs, ys, values, attempts = instance_rows(params, modes, seeds)
        assert xs.dtype == ys.dtype == np.int8
        assert xs.shape == ys.shape == (k, 2 * N)
        insts = generate_instance(params, modes, seeds)
        for i, (mode, seed) in enumerate(zip(modes, seeds)):
            x, y, value, tries = one_at_a_time(params, mode, seed)
            assert np.array_equal(xs[i], x) and np.array_equal(ys[i], y)
            assert values[i] == value
            assert attempts[i] == tries
            alone = generate_instance(params, mode, seed)
            for inst in (alone, insts[i]):
                assert np.array_equal(inst.x.signs, x)
                assert np.array_equal(inst.y.signs, y)
                assert inst.forr_value == value
                assert inst.label == classify(params, value)
                assert inst.attempts == tries

    @pytest.mark.parametrize("strength", [-1.0, 0.0, 0.5, 1.0])
    def test_planted_instance_equals_one_at_a_time(self, strength):
        params = ForrParams(64)
        for seed in range(5):
            inst = planted_instance(params, strength, seed)
            x, y, value, _ = one_at_a_time(params, InstanceMode.PLANTED_YES,
                                           seed, strength)
            assert np.array_equal(inst.x.signs, x)
            assert np.array_equal(inst.y.signs, y)
            assert inst.forr_value == value

    @pytest.mark.parametrize("N", [1 << e for e in range(2, 13)])
    def test_stacked_forr_equals_rows(self, N):
        params = ForrParams(N)
        gen = substream(N, 0)
        for rows in (uniform_sign_rows(gen, (40, 2 * N)).astype(np.float64),
                     gaussian_rows(gen, params, 40)):
            stacked = forr(rows)
            for i, row in enumerate(rows):
                assert stacked[i] == forr(row)

    def test_max_attempts_zero_raises_for_block(self):
        params = ForrParams(16)
        modes = [InstanceMode.PLANTED_YES, InstanceMode.PROMISE_NO,
                 InstanceMode.UNIFORM_NO]
        with pytest.raises(SamplingFailureError, match="promise_no"):
            instance_rows(params, modes, [1, 2, 3], max_attempts=0)
        with pytest.raises(SamplingFailureError):
            generate_instance(params, modes, [1, 2, 3], max_attempts=0)
        # Planted and uniform instances are not rejection-sampled.
        _, _, _, attempts = instance_rows(params, modes[::2], [1, 3],
                                          max_attempts=0)
        assert attempts.tolist() == [1, 1]

    def test_block_raises_when_one_instance_is_still_pending(self):
        params = ForrParams(16)
        modes = [InstanceMode.PROMISE_YES] * 7
        _, _, _, attempts = instance_rows(params, modes, range(7))
        cap = int(attempts.max()) - 1
        assert cap >= 1
        with pytest.raises(SamplingFailureError, match=f"after {cap} attempts"):
            instance_rows(params, modes, range(7), max_attempts=cap)
        instance_rows(params, modes, range(7), max_attempts=cap + 1)

    def test_block_arguments_validated(self):
        params = ForrParams(16)
        with pytest.raises(ValueError, match="2 modes need as many seeds"):
            instance_rows(params, ["planted_yes", "uniform_no"], [1])
        with pytest.raises(ValueError, match="strength"):
            instance_rows(params, ["planted_yes"], [1], strength=1.5)
        with pytest.raises(ValueError):
            instance_rows(params, ["no_such_mode"], [1])


class TestUniformConcentration:
    def test_variance_at_most_inverse_N(self):
        for N, seed in ((16, 1), (64, 2)):
            p = ForrParams(N)
            gen = substream(seed, 0)
            rows = uniform_sign_rows(gen, (100_000, 2 * N)).astype(np.float64)
            vals = forr(rows)
            var = float(vals.var())
            m4 = float(((vals - vals.mean()) ** 4).mean())
            se = math.sqrt(max(m4 - var ** 2, 0.0) / len(vals))
            assert var <= 1.0 / N + 5 * se


@pytest.mark.slow
class TestTruncationError:
    def test_shifted_truncation_gap_is_tiny(self):
        # Bounded multilinear F on 8 coordinates, center in [-1/2, 1/2]^8,
        # scale p <= 1/2: the truncation changes F by at most 8/N^5 on
        # average.  At this coupling the clamp almost never engages.
        params = ForrParams(4)
        F = spectrum(protocol_H(random_protocol_partition(8, 3, seed=2)))
        gen = substream(123, 0)
        z0 = gen.uniform(-0.5, 0.5, size=8)
        scale = 0.5
        z = gaussian_rows(gen, params, 100_000)
        shifted = z0[None, :] + scale * z
        gap = np.abs(multilinear_eval(F, truncate(shifted)) -
                     multilinear_eval(F, shifted))
        se = gap.std() / math.sqrt(len(gap)) if gap.std() > 0 else 0.0
        assert gap.mean() <= 8.0 / params.N ** 5 + 3 * se
