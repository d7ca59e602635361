"""Tests for the dense Boolean Fourier engine.

Oracles here are deliberately independent of the FWHT path: direct
character sums, explicit subset enumeration, and pointwise monomial
products.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forrlab._bits import popcount
from forrlab._rng import substream
from forrlab.boolean_fourier import (
    AUDIT_BLOCK,
    FunctionTable,
    _level_weights,
    SignVector,
    character_table,
    convolve,
    fwht,
    indicator_table,
    inverse_spectrum,
    level_k_bound,
    level_mass,
    level_weight,
    multilinear_eval,
    random_indicator_violations,
    spectrum,
    subcube_violations,
)


def signs_of(code: int, n: int) -> np.ndarray:
    return np.array([1 - 2 * ((code >> i) & 1) for i in range(n)], dtype=float)


def chi_direct(mask: int, code: int, n: int) -> float:
    """Character value by explicit monomial product."""
    s = signs_of(code, n)
    return float(np.prod([s[i] for i in range(n) if (mask >> i) & 1]))


def spectrum_direct(values: np.ndarray, n: int) -> np.ndarray:
    """Coefficients by the defining double loop."""
    out = np.zeros(1 << n)
    for mask in range(1 << n):
        out[mask] = sum(values[x] * chi_direct(mask, x, n)
                        for x in range(1 << n)) / (1 << n)
    return out


class TestFwht:
    def test_two_point_butterfly(self):
        assert np.array_equal(fwht([3.0, 5.0]), [8.0, -2.0])

    def test_delta_transforms_to_constant(self):
        delta = np.zeros(8)
        delta[0] = 1.0
        assert np.array_equal(fwht(delta), np.ones(8))

    def test_involution_up_to_scale(self):
        v = np.random.default_rng(0).normal(size=16)
        assert np.allclose(fwht(fwht(v)), 16 * v, atol=1e-12)

    def test_matches_direct_character_sum(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=16)
        # chi_S(x) with both encoded as masks equals (-1)^{popcount(S & x)}
        direct = [sum(v[i] * (-1) ** bin(i & j).count("1") for i in range(16))
                  for j in range(16)]
        assert np.allclose(fwht(v), direct, atol=1e-10)

    def test_batch_axis(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(5, 32))
        rows = np.stack([fwht(r) for r in block])
        assert np.allclose(fwht(block), rows)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.ones(12))

    @given(st.integers(0, 2 ** 31), st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        assert np.allclose(fwht(a * u + b * v), a * fwht(u) + b * fwht(v),
                           atol=1e-8)


def fwht_row_major(values: np.ndarray) -> np.ndarray:
    """The butterfly run in place along the last axis, one table at a time
    in memory order: the reference the transform-axis-first fwht must match
    bit for bit."""
    out = np.asarray(values, dtype=np.float64).copy()
    size = out.shape[-1]
    half = 1
    while half < size:
        view = out.reshape(out.shape[:-1] + (size // (2 * half), 2, half))
        top = view[..., 0, :] + view[..., 1, :]
        bot = view[..., 0, :] - view[..., 1, :]
        view[..., 0, :] = top
        view[..., 1, :] = bot
        half *= 2
    return out


FAST_PATH_SHAPES = [(8,), (1, 16), (3, 16), (2, 3, 32), (17, 256)]


class TestFwhtFastPath:
    @pytest.mark.parametrize("shape", FAST_PATH_SHAPES)
    def test_matches_row_major_butterfly(self, shape):
        values = np.random.default_rng(len(shape)).normal(size=shape)
        out = fwht(values)
        assert np.array_equal(out, fwht_row_major(values))
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("shape", FAST_PATH_SHAPES)
    def test_matches_definition(self, shape):
        # Small integers keep every sum exact, so the O(4^n) definition
        # must agree bit for bit.
        values = np.random.default_rng(5).integers(-9, 10, size=shape)
        size = shape[-1]
        codes = np.arange(size)
        signs = 1 - 2 * (popcount(codes[:, None] & codes[None, :]) & 1)
        assert np.array_equal(fwht(values), values @ signs)

    def test_input_untouched(self):
        values = np.random.default_rng(6).normal(size=(4, 16))
        kept = values.copy()
        fwht(values)
        assert np.array_equal(values, kept)


def subcube_violations_per_table(n: int, k: int) -> tuple[int, int]:
    """Reference: one indicator table, one transform, per subcube."""
    checked = violations = 0
    codes = np.arange(1 << n)
    for mask in range(1, 1 << n):
        alpha = 2.0 ** -mask.bit_count()
        if k > 2 * math.log(1 / alpha):
            continue
        for want in codes[(codes & ~mask) == 0]:
            members = (codes & mask) == want
            weight = level_weight(spectrum(indicator_table(n, members)), k)
            checked += 1
            violations += weight > level_k_bound(alpha, k) + 1e-12
    return violations, checked


def random_indicator_violations_per_table(n, k, count, seed):
    """Reference: the same draws as random_indicator_violations, each table
    transformed and compared on its own."""
    gen = substream(seed, 0)
    checked = violations = 0
    while checked < count:
        density = gen.uniform(0.02, 0.35)
        members = gen.uniform(size=1 << n) < density
        alpha = members.mean()
        if alpha <= 0 or k > 2 * math.log(1 / alpha):
            continue
        weight = level_weight(spectrum(indicator_table(n, members)), k)
        checked += 1
        violations += weight > level_k_bound(alpha, k) + 1e-12
    return violations, checked


class TestBatchedLevelWeights:
    @pytest.mark.parametrize("n, k", [(4, 1), (6, 2), (8, 2), (10, 3)])
    def test_rows_match_level_weight(self, n, k):
        members = np.random.default_rng(n).uniform(size=(AUDIT_BLOCK + 3,
                                                         1 << n)) < 0.2
        weights = _level_weights(members, k)
        for row, weight in zip(members, weights):
            assert weight == level_weight(spectrum(indicator_table(n, row)), k)

    @pytest.mark.parametrize("n, k", [(4, 2), (6, 2), (6, 3)])
    def test_subcubes_match_per_table(self, n, k):
        assert subcube_violations(n, k) == subcube_violations_per_table(n, k)

    @pytest.mark.parametrize("count", [1, AUDIT_BLOCK - 1, AUDIT_BLOCK,
                                       AUDIT_BLOCK + 1, 2 * AUDIT_BLOCK + 1])
    def test_ragged_random_blocks_match_per_table(self, count):
        for seed in (0, 7):
            assert (random_indicator_violations(10, 2, count, seed) ==
                    random_indicator_violations_per_table(10, 2, count, seed))


class TestSpectrum:
    def test_character_is_unit_coefficient(self):
        for mask in (0b0, 0b101, 0b111):
            s = spectrum(character_table(3, mask))
            want = np.zeros(8)
            want[mask] = 1.0
            assert np.allclose(s.coeffs, want, atol=1e-12)

    def test_constant_function(self):
        s = spectrum(FunctionTable(3, np.ones(8)))
        assert s.coeffs[0] == 1.0
        assert np.all(s.coeffs[1:] == 0.0)

    def test_single_point_indicator_n3(self):
        members = np.zeros(8, dtype=bool)
        members[5] = True
        s = spectrum(indicator_table(3, members))
        assert np.allclose(np.abs(s.coeffs), 1.0 / 8.0, atol=1e-12)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        f = FunctionTable(6, rng.normal(size=64))
        back = inverse_spectrum(spectrum(f))
        assert np.allclose(back.values, f.values, atol=1e-12)

    def test_matches_defining_sum(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=16)
        s = spectrum(FunctionTable(4, values))
        assert np.allclose(s.coeffs, spectrum_direct(values, 4), atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 11, 14])
    def test_parseval(self, n):
        rng = np.random.default_rng(n)
        f = FunctionTable(n, rng.normal(size=1 << n))
        s = spectrum(f)
        lhs = float(np.square(s.coeffs).sum())
        rhs = float(np.square(f.values).mean())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_table_validation(self):
        with pytest.raises(ValueError):
            FunctionTable(3, np.ones(7))
        with pytest.raises(ValueError):
            FunctionTable(2, np.array([1.0, np.inf, 0.0, 0.0]))


class TestConvolve:
    def test_character_idempotence(self):
        chi = character_table(4, 0b0110)
        assert np.allclose(convolve(chi, chi).values, chi.values, atol=1e-12)

    def test_constant_projects_mean(self):
        rng = np.random.default_rng(5)
        g = FunctionTable(4, rng.normal(size=16))
        ones = FunctionTable(4, np.ones(16))
        out = convolve(ones, g)
        assert np.allclose(out.values, g.values.mean(), atol=1e-12)

    def test_point_mass_autocorrelation(self):
        members = np.zeros(4, dtype=bool)
        members[2] = True
        f = indicator_table(2, members)
        out = convolve(f, f)
        want = np.zeros(4)
        want[0] = 0.25  # the all +1 point
        assert np.allclose(out.values, want, atol=1e-12)

    def test_matches_defining_average(self):
        rng = np.random.default_rng(6)
        n = 3
        f = rng.normal(size=8)
        g = rng.normal(size=8)
        out = convolve(FunctionTable(n, f), FunctionTable(n, g)).values
        for z in range(8):
            zs = signs_of(z, n)
            acc = 0.0
            for y in range(8):
                ys = signs_of(y, n)
                prod_code = sum((1 - int(ys[i] * zs[i])) // 2 << i
                                for i in range(n))
                acc += f[y] * g[prod_code]
            assert abs(out[z] - acc / 8) < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_convolution_theorem(self, n):
        rng = np.random.default_rng(n + 10)
        f = FunctionTable(n, rng.normal(size=1 << n))
        g = FunctionTable(n, rng.normal(size=1 << n))
        lhs = spectrum(convolve(f, g)).coeffs
        rhs = spectrum(f).coeffs * spectrum(g).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convolve(FunctionTable(2, np.ones(4)), FunctionTable(3, np.ones(8)))


class TestLevelMass:
    def test_character_concentrates_at_its_level(self):
        s = spectrum(character_table(5, 0b00110))
        masses = [level_mass(s, k) for k in range(6)]
        assert masses[2] == pytest.approx(1.0, abs=1e-12)
        for k in (0, 1, 3, 4, 5):
            assert masses[k] == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        s = spectrum(FunctionTable(3, np.ones(8)))
        assert level_mass(s, 0) == pytest.approx(1.0)

    def test_matches_subset_enumeration_n10(self):
        rng = np.random.default_rng(7)
        members = rng.uniform(size=1 << 10) < 0.3
        f = indicator_table(10, members)
        s = spectrum(f)
        for k in (0, 1, 2, 3):
            direct = 0.0
            for subset in itertools.combinations(range(10), k):
                mask = sum(1 << i for i in subset)
                coeff = np.mean(f.values * np.array(
                    [chi_direct(mask, x, 10) for x in range(1 << 10)]))
                direct += abs(coeff)
            assert level_mass(s, k) == pytest.approx(direct, abs=1e-9)

    def test_level_out_of_range(self):
        s = spectrum(FunctionTable(3, np.ones(8)))
        with pytest.raises(ValueError):
            level_mass(s, 4)
        with pytest.raises(ValueError):
            level_mass(s, -1)


class TestMultilinearEval:
    def test_origin_gives_mean(self):
        rng = np.random.default_rng(8)
        f = FunctionTable(4, rng.normal(size=16))
        s = spectrum(f)
        assert multilinear_eval(s, np.zeros(4)) == pytest.approx(
            f.values.mean(), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_extension_property_exhaustive(self, n):
        rng = np.random.default_rng(n + 20)
        f = FunctionTable(n, rng.normal(size=1 << n))
        s = spectrum(f)
        points = np.stack([signs_of(c, n) for c in range(1 << n)])
        got = multilinear_eval(s, points)
        assert np.max(np.abs(got - f.values)) <= 1e-9

    def test_pure_monomial(self):
        s = spectrum(character_table(4, 0b0011))
        assert multilinear_eval(s, np.full(4, 0.5)) == pytest.approx(0.25)

    def test_rejects_bad_point(self):
        s = spectrum(FunctionTable(2, np.ones(4)))
        with pytest.raises(ValueError):
            multilinear_eval(s, np.ones(3))
        with pytest.raises(ValueError):
            multilinear_eval(s, np.array([0.0, np.nan]))


class TestLevelKBound:
    def test_subcube_indicators_exhaustive_n6(self):
        n, k = 6, 2
        codes = np.arange(1 << n)
        for mask in range(1, 1 << n):
            width = bin(mask).count("1")
            if width < 2:
                continue  # bound needs k <= 2 ln(1/alpha)
            members = (codes & mask) == (mask & 0b010101)
            f = indicator_table(n, members)
            alpha = members.mean()
            w2 = level_weight(spectrum(f), k)
            assert w2 <= level_k_bound(alpha, k) + 1e-12

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            level_k_bound(0.0, 2)
        with pytest.raises(ValueError):
            level_k_bound(0.5, 4)  # 4 > 2 ln 2
        with pytest.raises(ValueError):
            level_k_bound(0.25, 0)


class TestSignVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignVector(np.array([1, 0, -1]))
        with pytest.raises(ValueError):
            SignVector(np.ones((2, 2)))

    def test_product_and_length(self):
        a = SignVector(np.array([1, -1, 1, -1]))
        b = SignVector(np.array([1, 1, -1, -1]))
        assert np.array_equal((a * b).signs, [1, -1, -1, 1])
        assert len(a) == 4

    @given(st.integers(0, 2 ** 31), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_base64_roundtrip(self, seed, n):
        signs = 1 - 2 * np.random.default_rng(seed).integers(0, 2, size=n)
        v = SignVector(signs.astype(np.int8))
        back = SignVector.from_base64(v.to_base64(), n)
        assert np.array_equal(back.signs, v.signs)
