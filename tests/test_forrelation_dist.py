"""Tests for the forrelation functional and its input distributions.

The forrelation oracle here is the O(N^2) double sum with an explicitly
built sign matrix, independent of the transform path under test.
Statistical checks use the 3/5 sigma gates stated per property.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forrlab._rng import BLOCK_BYTES, CHUNK, mc_mean, substream
from forrlab.boolean_fourier import (
    FourierSpectrum,
    fwht,
    multilinear_eval,
    spectrum,
)
from forrlab.errors import SamplingFailureError
from forrlab.forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    LiftedInstance,
    classify,
    forr,
    forrelation_rows,
    gaussian_moment,
    gaussian_rows,
    generate_instance,
    instance_rows,
    moment_draw,
    planted_instance,
    round_rows,
    sample_forrelation,
    sample_gaussian,
    sample_lifted,
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
    def test_box_muller_moments(self):
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
        rows = sample_gaussian(p, seed=5, samples=50)
        assert np.allclose(rows[:, 16:], fwht(rows[:, :16]) / 4.0, atol=1e-12)

    def test_marginal_variance(self):
        p = ForrParams(16)
        rows = sample_gaussian(p, seed=6, samples=1_000_000)
        for col in (0, 3, 17, 30):
            var = rows[:, col].var()
            se = p.eps * math.sqrt(2.0 / rows.shape[0])
            assert abs(var - p.eps) <= 5 * se

    def test_cross_covariance_sign_pattern(self):
        p = ForrParams(16)
        rows = sample_gaussian(p, seed=7, samples=400_000)
        for i, j in ((0, 0), (1, 2), (5, 13), (7, 7)):
            prod = rows[:, i] * rows[:, 16 + j]
            want = p.eps * (-1) ** bin(i & j).count("1") / 4.0
            se = prod.std() / math.sqrt(rows.shape[0])
            assert abs(prod.mean() - want) <= 5 * se

    def test_single_draw_matches_first_of_batch(self):
        p = ForrParams(8)
        one = sample_gaussian(p, seed=11)
        batch = sample_gaussian(p, seed=11, samples=3)
        assert np.array_equal(one, batch[0])

    def test_deterministic(self):
        p = ForrParams(8)
        a = sample_gaussian(p, seed=12, samples=100)
        b = sample_gaussian(p, seed=12, samples=100)
        assert np.array_equal(a, b)


class TestSignSampler:
    def test_signs_and_shape(self):
        p = ForrParams(8)
        rows = sample_forrelation(p, seed=1, samples=100)
        assert rows.dtype == np.int8
        assert set(np.unique(rows)) <= {-1, 1}

    def test_coordinate_means_vanish(self):
        p = ForrParams(8)
        rows = sample_forrelation(p, seed=2, samples=1_000_000)
        se = 1.0 / math.sqrt(rows.shape[0])
        assert np.max(np.abs(rows.mean(axis=0))) <= 5 * se

    def test_mean_forrelation_exceeds_half_eps(self):
        p = ForrParams(64)
        rows = sample_forrelation(p, seed=3, samples=200_000)
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
        x, y = sample_lifted(p, seed=4, samples=100_000)
        se = 1.0 / math.sqrt(x.shape[0])
        assert np.max(np.abs(x.mean(axis=0))) <= 5 * se
        assert np.max(np.abs(y.mean(axis=0))) <= 5 * se

    def test_product_recovers_hidden_sample(self):
        p = ForrParams(8)
        x, y = sample_lifted(p, seed=5)
        gen = substream(5, 0)
        z = forrelation_rows(gen, p, 1)[0]
        assert np.array_equal(x * y, z)

    def test_high_forrelation_event_probability(self):
        p = ForrParams(64)
        x, y = sample_lifted(p, seed=6, samples=50_000)
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
    sizes = [1, block - 1, block, block + 1, 3 * block - 5]

    @pytest.mark.parametrize("k", sizes)
    @pytest.mark.parametrize("s_set, t_set", [([3], [5]), ([0, 7], [2]),
                                              ([], [])])
    def test_moment_draw_equals_unblocked_products(self, k, s_set, t_set):
        cols = np.array(s_set + [self.params.N + j for j in t_set], dtype=int)
        got = moment_draw(self.params, s_set, t_set)(substream(40, k), k)
        want = gaussian_rows(substream(40, k), self.params, k)[:, cols].prod(
            axis=1)
        assert got.shape == (k,)
        assert np.array_equal(got, want)

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


def moment_reference(params: ForrParams, s_set, t_set):
    """The moment draw from full coupled-Gaussian rows."""
    cols = np.array(list(s_set) + [params.N + j for j in t_set], dtype=int)
    return lambda gen, k: gaussian_rows(gen, params, k)[:, cols].prod(axis=1)


def moment_sets(N: int) -> dict[str, tuple[list[int], list[int]]]:
    return {
        # S only: a sine column (second half of the normals) then a cosine one.
        "t_empty": ([N // 2 + 1, 0], []),
        "s_empty": ([], [1, N - 1]),
        "three_by_three": ([N - 1, 0, N // 2], [2, N // 2 + 1, 1]),
    }


class TestMomentFastPath:
    """moment_draw computes only the columns its product reads; every value
    must still equal the product over full gaussian_rows."""

    @pytest.mark.parametrize("case", ["t_empty", "s_empty", "three_by_three"])
    @pytest.mark.parametrize("N", [4, 16, 64])
    def test_equals_full_rows(self, N, case):
        params = ForrParams(N)
        s_set, t_set = moment_sets(N)[case]
        block = BLOCK_BYTES // (8 * params.input_length)
        for k in (1, block - 1, block + 1, 3 * block - 5):
            got = moment_draw(params, s_set, t_set)(substream(43, k), k)
            want = moment_reference(params, s_set, t_set)(substream(43, k), k)
            assert got.shape == (k,)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_standard_normal_rows_equals_reference(self, n):
        # Box-Muller written out on gen.uniform draws: cosines, then sines.
        u = substream(45, n).uniform(size=(257, n))
        radius = np.sqrt(-2.0 * np.log1p(-u[:, :n // 2]))
        angle = 2.0 * np.pi * u[:, n // 2:]
        want = np.concatenate([radius * np.cos(angle),
                               radius * np.sin(angle)], axis=1)
        got = standard_normal_rows(substream(45, n), 257, n)
        assert np.array_equal(got, want)

    def test_gaussian_moment_equals_reference_estimate(self):
        params = ForrParams(16)
        s_set, t_set = moment_sets(16)["three_by_three"]
        samples = 2 * CHUNK + 17
        got = gaussian_moment(params, s_set, t_set, samples, 44)
        want = mc_mean(moment_reference(params, s_set, t_set), samples, 44)
        assert got.estimate == want.estimate
        assert got.standard_error == want.standard_error


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
