"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; statistical gates are the stated 3/4/5 sigma bands and all expected
values are either exact identities or independently computed.
"""

import math
import time

import numpy as np
import pytest

from forrlab._bits import codes_to_signs, f2_inner_sign, signs_to_codes
from forrlab._rng import chunk_sizes, substream
from forrlab.boolean_fourier import (
    FunctionTable,
    convolve,
    multilinear_eval,
    spectrum,
)
from forrlab.boolean_fourier import (
    random_indicator_violations as _random_indicator_violations,
    subcube_violations as _subcube_violations,
)
from forrlab.forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    forr,
    forrelation_rows,
    gaussian_moment,
    gaussian_rows,
    generate_instance,
    planted_instance,
    round_rows,
    truncate,
    uniform_sign_rows,
)
from forrlab.protocol import (
    QuantumProtocolConfig,
    l2_audit,
    protocol_H,
    random_protocol_partition,
    run_quantum_protocol,
)
from forrlab.quantum_sim import (
    StateVector,
    e_operator,
    swap_test_shots,
    verify_controlled_h_decomposition,
)


def report(num: int, text: str, t0: float):
    print(f"\n[PASS] criterion {num}: {text} ({time.time() - t0:.1f}s)")


def test_criterion_01_swap_test_law():
    """20 random 5-qubit state pairs, 1e5 shots, 4 sigma of (1+<phi|psi>)/2."""
    t0 = time.time()
    shots = 100_000
    gen = np.random.default_rng(101)
    worst = 0.0
    for pair in range(20):
        phi = gen.normal(size=32)
        phi /= np.linalg.norm(phi)
        psi = gen.normal(size=32)
        psi /= np.linalg.norm(psi)
        amps = np.zeros(64, dtype=complex)
        amps[:32] = phi / math.sqrt(2)
        amps[32:] = psi / math.sqrt(2)
        state = StateVector.from_amplitudes(amps)
        bits = swap_test_shots(state, control=5, shots=shots,
                               rng=substream(500 + pair, 0))
        want = (1.0 + float(phi @ psi)) / 2.0
        sigma = math.sqrt(max(want * (1 - want), 1e-12) / shots)
        dev = abs(bits.mean() - want) / sigma
        worst = max(worst, dev)
        assert dev <= 4.0, f"pair {pair}: {dev:.2f} sigma"
    report(1, f"swap-test law holds for 20 pairs (worst {worst:.2f} sigma)", t0)


def test_criterion_02_per_copy_protocol_statistic():
    """N in {16, 64}, 10 instances spanning forr in [-0.8, 0.8], 1e4 copies
    each, acceptance fraction within 4 sigma of 1/2 + forr/2."""
    t0 = time.time()
    copies = 10_000
    for N in (16, 64):
        params = ForrParams(N)
        strengths = np.linspace(-1.0, 1.0, 10)
        values = []
        for k, strength in enumerate(strengths):
            inst = planted_instance(params, float(strength), seed=2000 + k)
            values.append(inst.forr_value)
            cfg = QuantumProtocolConfig(params, copies=copies,
                                        seed=3000 + 100 * N + k)
            out = run_quantum_protocol(inst.x, inst.y, cfg)
            want = 0.5 + inst.forr_value / 2.0
            sigma = math.sqrt(want * (1 - want) / copies)
            dev = abs(out.ones_fraction - want) / sigma
            assert dev <= 4.0, f"N={N} strength={strength}: {dev:.2f} sigma"
        assert min(values) <= -0.7 and max(values) >= 0.7, "span too narrow"
    report(2, "per-copy acceptance matches 1/2 + forr/2 across the span", t0)


def test_criterion_03_end_to_end_separation():
    """N=64, 200 planted + 200 uniform instances, 500 copies: accuracy
    >= 0.95 and qubits_sent per instance = 500 * 2 * log2(128) exactly."""
    t0 = time.time()
    params = ForrParams(64)
    copies = 500
    qubits_expected = copies * 2 * int(math.log2(128))
    correct = 0
    for k in range(200):
        inst = generate_instance(params, InstanceMode.PLANTED_YES, seed=4000 + k)
        cfg = QuantumProtocolConfig(params, copies=copies, threshold=0.7,
                                    seed=5000 + k)
        out = run_quantum_protocol(inst.x, inst.y, cfg)
        assert out.qubits_sent == qubits_expected
        correct += out.decision is Label.YES
    for k in range(200):
        inst = generate_instance(params, InstanceMode.UNIFORM_NO, seed=6000 + k)
        cfg = QuantumProtocolConfig(params, copies=copies, threshold=0.7,
                                    seed=7000 + k)
        out = run_quantum_protocol(inst.x, inst.y, cfg)
        assert out.qubits_sent == qubits_expected
        correct += out.decision is Label.NO
    accuracy = correct / 400.0
    assert accuracy >= 0.95, f"accuracy {accuracy}"
    report(3, f"amplified-gap accuracy {accuracy:.3f} >= 0.95, "
              f"qubits/instance = {qubits_expected}", t0)


def test_criterion_04_gaussian_moments():
    """N=16, 1e6 samples: pair moments match eps N^{-1/2} (-1)^{<i,j>} at
    5 sigma; unequal sizes vanish at 5 sigma; |moment| <= eps^{|S|} + 5 se."""
    t0 = time.time()
    params = ForrParams(16)
    samples = 1_000_000
    gen = substream(321, 0)

    for k in range(20):
        i = int(gen.integers(16))
        j = int(gen.integers(16))
        est = gaussian_moment(params, [i], [j], samples, seed=8000 + k)
        want = params.eps * float(f2_inner_sign(i, j)) / 4.0
        assert abs(est.estimate - want) <= 5 * est.standard_error, (i, j)

    for k in range(20):
        s_size = int(gen.integers(0, 4))
        t_size = int((s_size + 1 + gen.integers(3)) % 4)
        s_set = list(map(int, gen.choice(16, size=s_size, replace=False)))
        t_set = list(map(int, gen.choice(16, size=t_size, replace=False)))
        est = gaussian_moment(params, s_set, t_set, samples, seed=8100 + k)
        assert abs(est.estimate) <= 5 * est.standard_error, (s_set, t_set)

    for k, size in enumerate((1, 1, 2, 2, 3, 3)):
        s_set = list(map(int, gen.choice(16, size=size, replace=False)))
        t_set = list(map(int, gen.choice(16, size=size, replace=False)))
        est = gaussian_moment(params, s_set, t_set, samples, seed=8200 + k)
        assert abs(est.estimate) <= params.eps ** size + 5 * est.standard_error
    report(4, "Gaussian moment structure verified at 1e6 samples", t0)


def test_criterion_05_mean_forrelation_lower_bound():
    """N=64, 1e6 samples: E[forr] under the sign distribution is at least
    eps/2 - 3 se, with eps = 1/(50 ln 64) ~ 0.00481."""
    t0 = time.time()
    params = ForrParams(64)
    assert params.eps == pytest.approx(0.00481, abs=2e-6)
    samples = 1_000_000
    total = total_sq = 0.0
    for i, k in enumerate(chunk_sizes(samples)):
        vals = forr(forrelation_rows(substream(911, i), params, k)
                    .astype(np.float64))
        total += float(vals.sum())
        total_sq += float(np.square(vals).sum())
    mean = total / samples
    se = math.sqrt((total_sq / samples - mean * mean) / samples)
    assert mean >= params.eps / 2 - 3 * se, (mean, params.eps / 2, se)
    report(5, f"mean forrelation {mean:.5f} >= eps/2 = {params.eps / 2:.5f} "
              f"- 3se (se {se:.2e})", t0)


def test_criterion_06_rounding_transfer():
    """10 random rectangle-derived multilinear H on 8 coordinates: paired
    estimates under the sign distribution and under truncate(gaussian)
    agree within 5 joint se over 1e5 samples."""
    t0 = time.time()
    params = ForrParams(4)  # 2N = 8 coordinates
    samples = 100_000
    for k in range(10):
        H = protocol_H(random_protocol_partition(8, 1 + k % 4, seed=30 + k))
        spec = spectrum(H)
        gen = substream(9100 + k, 0)
        z = gaussian_rows(gen, params, samples)
        smooth = multilinear_eval(spec, truncate(z))
        rounded = round_rows(gen, z)
        discrete = H.values[signs_to_codes(rounded)]
        diff = discrete - smooth
        se = float(diff.std()) / math.sqrt(samples)
        assert abs(float(diff.mean())) <= 5 * se, f"H #{k}"
    report(6, "sign-rounding preserves multilinear expectations (10 tables)", t0)


def test_criterion_07_level_two_mass_bound():
    """1000 random partitions on 8-coordinate inputs, cost <= 4: the exact
    level-2 mass of the averaged protocol never exceeds 120 c^2."""
    t0 = time.time()
    worst_ratio = 0.0
    for seed in range(1000):
        cost = 1 + seed % 4
        audit = l2_audit(random_protocol_partition(8, cost, seed))
        assert audit.passed, f"seed {seed}: {audit}"
        worst_ratio = max(worst_ratio, audit.l2_mass / audit.bound)
    report(7, f"level-2 mass bound holds for 1000 partitions "
              f"(worst mass/bound {worst_ratio:.2e})", t0)


def test_criterion_08_level_k_inequality():
    """Exhaustive subcube indicators at n=8 plus 1000 random indicators at
    n=10, k=2: level-2 weight never exceeds alpha^2 (e ln(1/alpha))^2."""
    t0 = time.time()
    v1, c1 = _subcube_violations(8, 2)
    assert v1 == 0 and c1 == 6544
    v2, c2 = _random_indicator_violations(10, 2, 1000, seed=77)
    assert v2 == 0 and c2 == 1000
    report(8, f"level-2 inequality: 0 violations over {c1} subcubes "
              f"and {c2} random indicators", t0)


def test_criterion_09_exact_fourier_engine():
    """Parseval and the convolution theorem to 1e-10 on 100 random n=12
    instances; multilinear extension exhaustive at n=8."""
    t0 = time.time()
    gen = np.random.default_rng(99)
    for trial in range(100):
        f = FunctionTable(12, gen.normal(size=4096))
        g = FunctionTable(12, gen.normal(size=4096))
        sf, sg = spectrum(f), spectrum(g)
        energy = float(np.square(f.values).mean())
        assert abs(float(np.square(sf.coeffs).sum()) - energy) \
            <= 1e-10 * max(1.0, energy)
        lhs = spectrum(convolve(f, g)).coeffs
        assert float(np.max(np.abs(lhs - sf.coeffs * sg.coeffs))) <= 1e-10

    f = FunctionTable(8, gen.normal(size=256))
    points = codes_to_signs(np.arange(256), 8).astype(np.float64)
    got = multilinear_eval(spectrum(f), points)
    assert float(np.max(np.abs(got - f.values))) <= 1e-9
    report(9, "Parseval, convolution theorem, and multilinear extension "
              "exact at stated tolerances", t0)


def test_criterion_10_uniform_concentration():
    """Var[forr] under uniform inputs <= 1/N + 5 se at N in {16, 64, 256};
    the Chebyshev tail statement is checked wherever its bound is < 1."""
    t0 = time.time()
    samples = 100_000
    notes = []
    for N in (16, 64, 256):
        params = ForrParams(N)
        total = total_sq = below = 0.0
        total_q = 0.0
        for i, k in enumerate(chunk_sizes(samples)):
            rows = uniform_sign_rows(substream(1300 + N, i), (k, 2 * N))
            vals = forr(rows.astype(np.float64))
            total += float(vals.sum())
            total_sq += float(np.square(vals).sum())
            total_q += float((vals ** 4).sum())
            below += float((vals <= params.eps / 8).sum())
        mean = total / samples
        var = total_sq / samples - mean * mean
        m4 = total_q / samples
        se_var = math.sqrt(max(m4 - var * var, 0.0) / samples)
        assert var <= 1.0 / N + 5 * se_var, (N, var)

        cheb = 64.0 / (N * params.eps ** 2)
        p_low = below / samples
        se_p = math.sqrt(p_low * (1 - p_low) / samples)
        if cheb < 1.0:
            assert p_low >= 1.0 - cheb - 5 * se_p, (N, p_low, cheb)
            notes.append(f"N={N} bound {cheb:.3f} binding")
        else:
            # Tail bound exceeds 1 at desk scale: the inequality
            # P[forr > eps/8] <= cheb is vacuously consistent.
            assert 1.0 - p_low <= cheb
            notes.append(f"N={N} bound {cheb:.0f} vacuous")
    report(10, "uniform variance <= 1/N at N in {16,64,256}; Chebyshev "
               f"consistency: {', '.join(notes)}", t0)


def test_criterion_11_circuit_identities():
    """Controlled-H five-gate block equals diag(I, H) up to global phase at
    1e-10; erase-operator basis action exhaustive at block length 4."""
    t0 = time.time()
    assert verify_controlled_h_decomposition(1e-10) <= 1e-10
    for a in range(16):
        for b in range(16):
            amps = np.zeros(256, dtype=complex)
            amps[a + 16 * b] = 1.0
            sv = StateVector(8, amps)
            e_operator(sv, range(4), range(4, 8))
            assert sv.amps[a + 16 * (b ^ a)] == 1.0, (a, b)
    report(11, "controlled-H decomposition and erase operator exact", t0)
