"""Tests for the quantum protocol and the rectangle-partition audit.

Key oracles: the per-copy accept probability is checked against an exact
classical forrelation computation; the averaged-protocol table H is checked
against a brute-force double loop over all input pairs; the copy-count
formula is checked against scipy's exact binomial tail.
"""

import math

import numpy as np
import pytest
from scipy import stats

from forrlab._bits import codes_to_signs
from forrlab._rng import substream
from forrlab.boolean_fourier import (
    SignVector,
    convolve,
    indicator_table,
    level_mass,
    spectrum,
)
from forrlab.errors import PartitionError, ResourceLimitError
from forrlab.forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    forr,
    generate_instance,
    uniform_sign_rows,
)
from forrlab.protocol import (
    Cell,
    QuantumProtocolConfig,
    RectanglePartition,
    advantage,
    build_copy_circuit,
    default_copies,
    eval_partition,
    forrelation_probe_partition,
    l2_audit,
    majority_amplify,
    protocol_H,
    random_protocol_partition,
    referee_gates,
    run_quantum_protocol,
    trivial_partition,
)
from forrlab.quantum_sim import StateVector, apply_gate, swap_test_probability


def random_instance(N: int, seed: int):
    gen = substream(seed, 0)
    x = uniform_sign_rows(gen, (2 * N,))
    y = uniform_sign_rows(gen, (2 * N,))
    return SignVector(x), SignVector(y)


def copy_accept_probability(x: SignVector, y: SignVector) -> float:
    """Simulate the single-copy circuit up to the swap-test measurement."""
    circ = build_copy_circuit(x, y)
    state = StateVector.zero(circ.m)
    for gate in circ.gates[:-2]:
        apply_gate(state, gate)
    select = (x.n.bit_length() - 1) - 1
    return swap_test_probability(state, select)


class TestQuantumProtocol:
    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_copy_statistic_is_exact(self, N):
        for seed in range(6):
            x, y = random_instance(N, seed)
            f = forr((x.signs * y.signs).astype(np.float64))
            assert copy_accept_probability(x, y) == pytest.approx(
                0.5 + f / 2, abs=1e-12)

    def test_equal_inputs_give_all_ones_product(self):
        N = 16
        x, _ = random_instance(N, 50)
        cfg = QuantumProtocolConfig(ForrParams(N), copies=10_000, seed=1)
        stats_out = run_quantum_protocol(x, x, cfg)
        want = 0.5 + 1.0 / (2 * math.sqrt(N))
        se = math.sqrt(want * (1 - want) / cfg.copies)
        assert abs(stats_out.ones_fraction - want) <= 3 * se

    def test_planted_instance_statistics_and_decision(self):
        params = ForrParams(64)
        inst = generate_instance(params, InstanceMode.PLANTED_YES, seed=7)
        cfg = QuantumProtocolConfig(params, copies=500, threshold=0.7, seed=3)
        out = run_quantum_protocol(inst.x, inst.y, cfg)
        want = 0.5 + inst.forr_value / 2
        se = math.sqrt(want * (1 - want) / 500)
        assert abs(out.ones_fraction - want) <= 3 * se
        assert out.decision is Label.YES

    def test_single_copy_accounting(self):
        params = ForrParams(16)
        x, y = random_instance(16, 8)
        cfg = QuantumProtocolConfig(params, copies=1, seed=2)
        out = run_quantum_protocol(x, y, cfg)
        assert out.per_copy_bits.shape == (1,)
        assert out.qubits_sent == 2 * int(math.log2(32))
        assert out.oracle_calls == 2
        circ = build_copy_circuit(x, y)
        assert out.gate_count == circ.size

    def test_gate_count_scales_logarithmically(self):
        sizes = {}
        for N in (4, 8, 16, 32):
            x, y = random_instance(N, N)
            sizes[N] = build_copy_circuit(x, y).size
        # 8 L + 2 operators for L = log2(2N)
        for N, size in sizes.items():
            L = int(math.log2(2 * N))
            assert size == 8 * L + 2

    def test_default_threshold_from_params(self):
        params = ForrParams(64)
        cfg = QuantumProtocolConfig(params, copies=10)
        assert cfg.decision_threshold == pytest.approx(0.5 + 3 * params.eps / 32)

    def test_bits_match_full_per_copy_simulation(self):
        # The runner samples each copy's measurement from the shared
        # pre-measurement state; a from-scratch simulation of every copy
        # with the same substream must produce the identical bits.
        params = ForrParams(8)
        x, y = random_instance(8, 77)
        cfg = QuantumProtocolConfig(params, copies=50, seed=13)
        fast = run_quantum_protocol(x, y, cfg)
        circ = build_copy_circuit(x, y)
        for t in range(cfg.copies):
            state = StateVector.zero(circ.m)
            rng = substream(cfg.seed, t)
            for gate in circ.gates[:-1]:
                apply_gate(state, gate)
            sign = apply_gate(state, circ.gates[-1], rng)
            bit = 1 if sign == 1 else 0
            assert bit == fast.per_copy_bits[t], f"copy {t}"

    @pytest.mark.parametrize("N", [4, 8, 16, 32, 64])
    def test_register_after_erasure_matches_full_circuit(self, N):
        # The runner simulates only Alice's register, starting from
        # x_i y_i / sqrt(2N); the full circuit through the erase cascade
        # must leave exactly that state with Bob's block at |0>.
        x, y = random_instance(N, 40 + N)
        circ = build_copy_circuit(x, y)
        half = circ.m // 2
        state = StateVector.zero(circ.m)
        for gate in circ.gates[:-len(referee_gates(half)) - 2]:
            apply_gate(state, gate)
        blocks = state.amps.reshape(1 << half, 1 << half)  # [bob, alice]
        assert float(np.sum(np.abs(blocks[1:]) ** 2)) <= 1e-24
        want = x.signs * y.signs / math.sqrt(2 * N)
        np.testing.assert_allclose(blocks[0], want, rtol=0, atol=1e-12)
        if N == 64:
            for gate in referee_gates(half):
                apply_gate(state, gate)
            full_p = swap_test_probability(state, half - 1)
            cfg = QuantumProtocolConfig(ForrParams(N), copies=500, seed=21)
            out = run_quantum_protocol(x, y, cfg)
            want_bits = [full_p > substream(cfg.seed, t).uniform()
                         for t in range(cfg.copies)]
            assert out.per_copy_bits.tolist() == want_bits

    def test_deterministic_per_copy_bits(self):
        params = ForrParams(16)
        x, y = random_instance(16, 9)
        cfg = QuantumProtocolConfig(params, copies=200, seed=5)
        a = run_quantum_protocol(x, y, cfg)
        b = run_quantum_protocol(x, y, cfg)
        assert np.array_equal(a.per_copy_bits, b.per_copy_bits)
        assert a.ones_fraction == float(a.per_copy_bits.mean())

    def test_length_mismatch_rejected(self):
        params = ForrParams(16)
        x, y = random_instance(8, 10)
        with pytest.raises(ValueError):
            run_quantum_protocol(x, y, QuantumProtocolConfig(params, copies=1))

    def test_copies_validated(self):
        with pytest.raises(ValueError):
            QuantumProtocolConfig(ForrParams(16), copies=0)


class TestDefaultCopies:
    def test_closed_form_at_one_third(self):
        params = ForrParams(64)
        t = default_copies(params, 1.0 / 3.0)
        closed = math.ceil(1024.0 * math.log(6.0) / (2.0 * params.eps ** 2))
        assert t == closed

    def test_is_smallest(self):
        params = ForrParams(16)
        for err in (1.0 / 3.0, 0.1, 0.49):
            t = default_copies(params, err)
            rate = 2.0 * (params.eps / 32.0) ** 2
            assert 2.0 * math.exp(-rate * t) <= err
            if t > 1:
                assert 2.0 * math.exp(-rate * (t - 1)) > err

    def test_exact_binomial_tail_confirms(self):
        # At the promise edge p = 1/2 + eps/8, deviating below the decision
        # threshold 1/2 + 3 eps/32 means dropping eps/32 below the mean; the
        # exact one-sided tail must then be within the Chernoff budget.
        params = ForrParams(64)
        t = default_copies(params, 1.0 / 3.0)
        p_edge = 0.5 + params.eps / 8
        cut = math.floor(t * (0.5 + 3 * params.eps / 32))
        tail = stats.binom.cdf(cut, t, p_edge)
        assert tail <= 1.0 / 6.0

    def test_monotonicity(self):
        params = ForrParams(16)
        assert default_copies(params, 0.49) >= 1
        assert default_copies(params, 0.2) >= default_copies(params, 0.4)

    def test_rejects_bad_error(self):
        params = ForrParams(16)
        for bad in (0.0, 0.5, 1.0, -0.1):
            with pytest.raises(ValueError):
                default_copies(params, bad)


class TestMajorityAmplify:
    def test_single_repetition_is_identity(self):
        assert majority_amplify(1.0 / 3.0, 1) == pytest.approx(1.0 / 3.0)

    def test_fifteen_repetitions_exact_sum(self):
        want = sum(math.comb(15, k) * (1 / 3) ** k * (2 / 3) ** (15 - k)
                   for k in range(8, 16))
        assert majority_amplify(1.0 / 3.0, 15) == pytest.approx(want, rel=1e-12)

    def test_matches_scipy_tail(self):
        for p, reps in ((0.3, 11), (0.1, 7), (0.45, 21)):
            want = float(stats.binom.sf((reps + 1) // 2 - 1, reps, p))
            assert majority_amplify(p, reps) == pytest.approx(want, rel=1e-10)

    def test_zero_error_stays_zero(self):
        for reps in (1, 3, 11):
            assert majority_amplify(0.0, reps) == 0.0

    def test_monotone_decreasing_in_reps(self):
        values = [majority_amplify(1.0 / 3.0, r) for r in range(1, 30, 2)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            majority_amplify(0.5, 3)
        with pytest.raises(ValueError):
            majority_amplify(0.1, 4)


def product_sign_partition(n: int, coord: int) -> RectanglePartition:
    """Cells realizing C(x, y) = x(coord) * y(coord)."""
    codes = np.arange(1 << n)
    sign = 1 - 2 * ((codes >> coord) & 1)
    cells = [Cell(sign == s, sign == t, int(s * t))
             for s in (1, -1) for t in (1, -1)]
    return RectanglePartition(n, 2, cells)


class TestPartitions:
    def test_single_cell_constant(self):
        p = trivial_partition(4, output=1)
        x, y = random_instance(2, 11)  # length 2N = 4
        assert eval_partition(p, x, y) == 1

    def test_first_coordinate_protocol(self):
        n = 4
        codes = np.arange(1 << n)
        sign = 1 - 2 * (codes & 1)
        cells = [Cell(sign == s, np.ones(1 << n, dtype=bool), int(s))
                 for s in (1, -1)]
        p = RectanglePartition(n, 1, cells)
        for code in range(1 << n):
            x = codes_to_signs(np.array([code]), n)[0]
            y = codes_to_signs(np.array([code ^ 5]), n)[0]
            assert eval_partition(p, x, y) == x[0]

    def test_random_partition_agrees_with_cell_lookup(self):
        n = 4
        p = random_protocol_partition(n, 2, seed=3)
        pts = codes_to_signs(np.arange(1 << n), n)
        for xc in range(1 << n):
            for yc in range(1 << n):
                hits = [c.output for c in p.cells
                        if c.alice[xc] and c.bob[yc]]
                assert len(hits) == 1
                assert eval_partition(p, pts[xc], pts[yc]) == hits[0]

    def test_overlapping_cells_rejected(self):
        n = 2
        full = np.ones(4, dtype=bool)
        with pytest.raises(PartitionError):
            RectanglePartition(n, 1, [Cell(full, full, 1), Cell(full, full, -1)])

    def test_incomplete_cover_rejected(self):
        n = 2
        half = np.zeros(4, dtype=bool)
        half[:2] = True
        with pytest.raises(PartitionError):
            RectanglePartition(n, 1, [Cell(half, half, 1)])

    def test_cell_budget_enforced(self):
        n = 2
        codes = np.arange(4)
        cells = [Cell(codes == c, np.ones(4, dtype=bool), 1) for c in range(4)]
        with pytest.raises(PartitionError):
            RectanglePartition(n, 1, cells)
        RectanglePartition(n, 2, cells)  # fits at cost 2

    def test_predicate_validation_catches_non_partition(self):
        n = 20
        first = lambda rows: rows[:, 0] == 1
        with pytest.raises(PartitionError):
            RectanglePartition(n, 1, [Cell(first, first, 1)])
        # Overlap: every pair with x_0 = 1 lies in both cells.
        everything = lambda rows: np.ones(rows.shape[0], dtype=bool)
        with pytest.raises(PartitionError, match="covered by 2 cells"):
            RectanglePartition(n, 1, [Cell(first, everything, 1),
                                      Cell(everything, everything, -1)])

    def test_random_partitions_are_valid_and_bounded(self):
        for seed in range(20):
            cost = 1 + seed % 4
            p = random_protocol_partition(8, cost, seed)
            assert len(p.cells) <= 1 << cost

    def test_json_roundtrip(self):
        p = random_protocol_partition(6, 3, seed=4)
        back = RectanglePartition.from_json(p.to_json())
        assert back.n == p.n and back.cost == p.cost
        for a, b in zip(back.cells, p.cells):
            assert np.array_equal(a.alice, b.alice)
            assert np.array_equal(a.bob, b.bob)
            assert a.output == b.output


class TestProtocolH:
    def test_trivial_partition_gives_constant(self):
        H = protocol_H(trivial_partition(4, 1))
        assert np.allclose(H.values, 1.0, atol=1e-12)

    def test_product_sign_protocol_lifts_to_coordinate(self):
        n = 4
        H = protocol_H(product_sign_partition(n, 1))
        z_coord = 1 - 2 * ((np.arange(1 << n) >> 1) & 1)
        assert np.allclose(H.values, z_coord, atol=1e-12)

    def test_matches_brute_force_average(self):
        n = 4
        pts = codes_to_signs(np.arange(1 << n), n).astype(np.int8)
        for seed in range(5):
            p = random_protocol_partition(n, 3, seed=seed)
            H = protocol_H(p)
            for zc in range(1 << n):
                z = pts[zc]
                vals = p.evaluate_rows(pts, pts * z)
                assert H.values[zc] == pytest.approx(vals.mean(), abs=1e-12)

    def test_values_bounded(self):
        for seed in range(10):
            H = protocol_H(random_protocol_partition(8, 4, seed=seed))
            assert np.max(np.abs(H.values)) <= 1.0 + 1e-9

    @pytest.mark.parametrize("cost", [1, 2, 3, 4, 5, 6])
    def test_matches_per_cell_convolve_sum(self, cost):
        # Costs 5 and 6 give more cells than one transform block holds.
        for seed in range(3):
            p = random_protocol_partition(8, cost, seed)
            want = np.zeros(1 << 8)
            for cell in p.cells:
                want += cell.output * convolve(
                    indicator_table(8, cell.alice),
                    indicator_table(8, cell.bob)).values
            assert np.array_equal(protocol_H(p).values, want)

    def test_per_cell_fourier_factorization(self):
        p = random_protocol_partition(8, 3, seed=6)
        for cell in p.cells:
            fa = indicator_table(8, cell.alice)
            fb = indicator_table(8, cell.bob)
            lhs = spectrum(convolve(fa, fb)).coeffs
            rhs = spectrum(fa).coeffs * spectrum(fb).coeffs
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_feasibility_cap(self):
        with pytest.raises(ResourceLimitError):
            protocol_H(trivial_partition(18, 1))


class TestL2Audit:
    def test_trivial_partition(self):
        audit = l2_audit(trivial_partition(6, 1))
        assert audit.l2_mass == pytest.approx(0.0, abs=1e-12)
        assert audit.passed
        assert audit.effective_cost == 4  # full-cube sides exceed 1/e

    def test_degree_one_protocol_has_no_level_two_mass(self):
        audit = l2_audit(product_sign_partition(6, 0))
        assert audit.l2_mass <= 1e-12
        assert audit.passed

    def test_random_partitions_always_pass(self):
        for seed in range(200):
            cost = 1 + seed % 4
            audit = l2_audit(random_protocol_partition(8, cost, seed))
            assert audit.passed
            assert audit.bound == 120.0 * cost ** 2

    def test_mass_agrees_with_direct_spectrum(self):
        p = random_protocol_partition(8, 4, seed=7)
        audit = l2_audit(p)
        assert audit.l2_mass == pytest.approx(
            level_mass(spectrum(protocol_H(p)), 2), abs=1e-12)


class TestAdvantage:
    def test_trivial_partition_exactly_zero(self):
        params = ForrParams(8)
        out = advantage(trivial_partition(16, 1), params, 10_000, seed=1)
        assert out.estimate == 0.0
        assert out.standard_error == 0.0

    def test_product_sign_protocol_has_no_advantage(self):
        # C(x,y) = x(0) y(0) sees only the single-coordinate marginal of the
        # lifted distribution, which is symmetric.
        params = ForrParams(8)
        out = advantage(product_sign_partition(16, 0), params, 100_000, seed=2)
        assert abs(out.estimate) <= 3 * out.standard_error + 1e-9

    def test_probe_shrinks_with_N(self):
        small = ForrParams(16)
        large = ForrParams(64)
        a_small = advantage(forrelation_probe_partition(small), small,
                            400_000, seed=3)
        a_large = advantage(forrelation_probe_partition(large), large,
                            400_000, seed=4)
        joint = math.hypot(a_small.standard_error, a_large.standard_error)
        assert abs(a_large.estimate) <= abs(a_small.estimate) + 3 * joint

    def test_sample_floor(self):
        params = ForrParams(8)
        with pytest.raises(ValueError):
            advantage(trivial_partition(16, 1), params, 5000, seed=5)

    def test_length_mismatch(self):
        params = ForrParams(8)
        with pytest.raises(ValueError):
            advantage(trivial_partition(8, 1), params, 10_000, seed=6)
