"""Tests for the quantum protocol and the rectangle-partition audit.

Key oracles: the per-copy accept probability is checked against an exact
classical forrelation computation; the averaged-protocol table H is checked
against a brute-force double loop over all input pairs; the copy-count
formula is checked against scipy's exact binomial tail.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from forrlab import protocol, quantum_sim
from forrlab._bits import codes_to_signs, signs_to_codes
from forrlab._rng import substream
from forrlab.boolean_fourier import (
    AUDIT_BLOCK,
    FunctionTable,
    SignVector,
    convolve,
    indicator_table,
    level_mass,
    spectrum,
)
from forrlab.errors import InvariantError, PartitionError, ResourceLimitError
from forrlab.forrelation_dist import (
    ForrParams,
    InstanceMode,
    Label,
    forr,
    generate_instance,
    uniform_sign_rows,
)
from forrlab.protocol import (
    DENSE_CAP,
    Cell,
    QuantumProtocolConfig,
    RectanglePartition,
    advantage,
    build_copy_circuit,
    default_copies,
    forrelation_probe_partition,
    l2_audit,
    majority_amplify,
    pair_parity_mass,
    pair_parity_partition,
    protocol_H,
    protocol_spectrum,
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

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            QuantumProtocolConfig(ForrParams(16), copies=10,
                                  threshold=threshold)

    def test_default_threshold_from_params(self):
        params = ForrParams(64)
        cfg = QuantumProtocolConfig(params, copies=10)
        assert cfg.decision_threshold == pytest.approx(0.5 + 3 * params.eps / 32)

    def test_bits_match_full_per_copy_simulation(self):
        # The runner samples each copy's measurement from the shared
        # pre-measurement state; a from-scratch simulation of the copies in
        # order, each measuring with the next uniform of the one copy
        # stream, must produce the identical bits.
        params = ForrParams(8)
        x, y = random_instance(8, 77)
        cfg = QuantumProtocolConfig(params, copies=50, seed=13)
        fast = run_quantum_protocol(x, y, cfg)
        circ = build_copy_circuit(x, y)
        rng = substream(cfg.seed, 0)
        for t in range(cfg.copies):
            state = StateVector.zero(circ.m)
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
            rng = substream(cfg.seed, 0)
            want_bits = [full_p > rng.uniform() for _ in range(cfg.copies)]
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

    def test_copy_bits_over_the_byte_cap_refused(self):
        cap = quantum_sim.MAX_STATE_BYTES
        assert QuantumProtocolConfig(ForrParams(16), copies=cap).copies == cap
        with pytest.raises(ResourceLimitError, match="bytes of copy bits"):
            QuantumProtocolConfig(ForrParams(16), copies=cap + 1)

    def test_run_checks_controlled_h_once(self):
        x, y = random_instance(8, 11)
        quantum_sim._verify_controlled_h_once.cache_clear()
        run_quantum_protocol(x, y, QuantumProtocolConfig(ForrParams(8), copies=10))
        assert quantum_sim._verify_controlled_h_once.cache_info().misses == 1

    def test_broken_controlled_h_stops_the_run(self, monkeypatch):
        sequence = quantum_sim._controlled_h_sequence
        monkeypatch.setattr(quantum_sim, "_controlled_h_sequence",
                            lambda control, target: sequence(control, target)[:-1])
        quantum_sim._verify_controlled_h_once.cache_clear()
        x, y = random_instance(8, 12)
        with pytest.raises(InvariantError):
            run_quantum_protocol(
                x, y, QuantumProtocolConfig(ForrParams(8), copies=10))


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

    @pytest.mark.parametrize("eps", [1e-160, 1e-200])
    def test_count_beyond_float_range_refused(self, eps):
        with pytest.raises(ResourceLimitError, match="beyond float range"):
            default_copies(ForrParams(16, eps_override=eps), 1.0 / 3.0)

    @pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-30, 1e-150])
    def test_is_smallest_where_floats_cannot_resolve_one_copy(self, eps):
        # rate * T is coarser than 1 here, so a search that steps one copy
        # at a time would not finish.
        params = ForrParams(16, eps_override=eps)
        t = default_copies(params, 1.0 / 3.0)
        rate = 2.0 * (eps / 32.0) ** 2
        assert 2.0 * math.exp(-rate * t) <= 1.0 / 3.0
        assert 2.0 * math.exp(-rate * (t - 1)) > 1.0 / 3.0


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


def product_sign_partition(n: int, coord: int,
                           window=None) -> RectanglePartition:
    """Cells realizing C(x, y) = x(coord) * y(coord) over ``window``, which
    must hold coord; all n coordinates by default."""
    window = list(range(n) if window is None else window)
    codes = np.arange(1 << len(window))
    sign = 1 - 2 * ((codes >> window.index(coord)) & 1)
    cells = [Cell(sign == s, sign == t, int(s * t))
             for s in (1, -1) for t in (1, -1)]
    return RectanglePartition(n, 2, cells, window=window)


class TestPartitions:
    def test_single_cell_constant(self):
        p = trivial_partition(4, output=1)
        x, y = random_instance(2, 11)  # length 2N = 4
        assert int(p.evaluate_rows(x.signs, y.signs)[0]) == 1

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
            assert int(p.evaluate_rows(x, y)[0]) == x[0]

    def test_random_partition_agrees_with_cell_lookup(self):
        n = 4
        p = random_protocol_partition(n, 2, seed=3)
        pts = codes_to_signs(np.arange(1 << n), n)
        for xc in range(1 << n):
            for yc in range(1 << n):
                hits = [c.output for c in p.cells
                        if c.alice[xc] and c.bob[yc]]
                assert len(hits) == 1
                assert int(p.evaluate_rows(pts[xc], pts[yc])[0]) == hits[0]

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

    def test_random_partitions_are_valid_and_bounded(self):
        for seed in range(20):
            cost = 1 + seed % 4
            p = random_protocol_partition(8, cost, seed)
            assert len(p.cells) <= 1 << cost


def scalar_tree_cells(n: int, cost: int, seed: int) -> list[Cell]:
    """The slow reference for the random tree: per-node ``integers`` draws
    from substream (seed, 0), recursing depth first."""
    gen = substream(seed, 0)
    points = 1 << n
    cells = []

    def grow(amask, bmask, depth):
        if depth == cost:
            cells.append(Cell(amask, bmask, int(1 - 2 * gen.integers(2))))
            return
        msg = gen.integers(0, 2, size=points, dtype=np.uint8).astype(bool)
        alice_speaks = gen.integers(2) == 0
        side = amask if alice_speaks else bmask
        for part in (side & msg, side & ~msg):
            if part.any():
                if alice_speaks:
                    grow(part, bmask, depth + 1)
                else:
                    grow(amask, part, depth + 1)

    full = np.ones(points, dtype=bool)
    grow(full, full, 0)
    return cells


def assert_same_cells(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.alice, b.alice)
        assert np.array_equal(a.bob, b.bob)
        assert a.output == b.output


class TestRandomTreeReader:
    """The bulk word reader draws the tree the per-node draws would."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 10, 16])
    def test_matches_per_node_draws(self, n):
        # n = 1 reads half of each message word; n = 16 reads 2^14 words
        # per message, more than one refill.
        for cost in range(8):
            for seed in range(20):
                assert_same_cells(protocol._random_tree_cells(n, cost, seed),
                                  scalar_tree_cells(n, cost, seed))

    def test_partition_keeps_the_tree(self):
        for n, cost, seed in ((4, 3, 0), (8, 6, 1), (10, 2, 2)):
            assert_same_cells(random_protocol_partition(n, cost, seed).cells,
                              scalar_tree_cells(n, cost, seed))

    @pytest.mark.parametrize("n, cost", [(2, 40), (3, 30), (4, 24)])
    def test_deep_tree_reads_what_it_uses(self, n, cost):
        # Pruning keeps these trees small; a read sized by 2^cost would
        # need 2^24 words or more.
        tracemalloc.start()
        try:
            start = time.perf_counter()
            p = random_protocol_partition(n, cost, seed=1)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_cells(p.cells, scalar_tree_cells(n, cost, 1))
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_negative_cost_rejected_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(protocol, "substream", None)  # a draw would fail
        with pytest.raises(ValueError,
                           match="cost must be nonnegative, got -1"):
            random_protocol_partition(4, -1, 0)


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

    @pytest.mark.parametrize("n, cost", [(8, c) for c in range(1, 7)] +
                             [(16, 2), (16, 4)])
    def test_spectrum_matches_per_cell_convolve_sum(self, n, cost):
        # Costs 5 and 6 at n = 8 cross a transform block boundary.
        for seed in range(3):
            p = random_protocol_partition(n, cost, seed)
            want = np.zeros(1 << n)
            for cell in p.cells:
                want += cell.output * convolve(
                    indicator_table(n, cell.alice),
                    indicator_table(n, cell.bob)).values
            assert np.array_equal(protocol_spectrum(p).coeffs,
                                  spectrum(FunctionTable(n, want)).coeffs)

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


def mixed_block(n: int = 8) -> list:
    """Random partitions over all n coordinates interleaved with the
    trivial partition (no coordinate), the probe and the one-pair
    adversary (two) and the three-pair adversary (six)."""
    others = [trivial_partition(n), forrelation_probe_partition(
        ForrParams(n // 2), 1, 3), pair_parity_partition(n, 1),
        pair_parity_partition(n, 3)]
    block = []
    for seed in range(12):
        block.append(random_protocol_partition(n, 1 + seed % 6, seed))
        if seed % 3 == 0:
            block.append(others[seed // 3])
    return block


class TestBlockAudit:
    """A block's audits equal its partitions' single audits exactly."""

    @pytest.mark.parametrize("edge_offset", [None, -1, 0, 1])
    def test_transform_rows_around_the_edge(self, edge_offset, monkeypatch):
        # The edge is the random group's cell count: rows of 1, edge - 1,
        # edge and edge + 1 put the transform boundaries everywhere, at the
        # group's last cell, and past it.
        block = mixed_block()
        want = [l2_audit(p) for p in block]
        edge = sum(len(p.cells) for p in block if p.window.size == 8)
        rows = 1 if edge_offset is None else edge + edge_offset
        monkeypatch.setattr(protocol, "_audit_rows", lambda k: rows)
        assert l2_audit(block) == want
        assert l2_audit(tuple(block)) == want

    def test_block_lengths_around_the_edge(self):
        # The edge is the first prefix of random partitions that fills one
        # stacked transform at their window.
        ps = [random_protocol_partition(8, 1 + s % 4, 100 + s)
              for s in range(40)]
        filled = np.cumsum([len(p.cells) for p in ps])
        edge = 1 + int(np.argmax(filled >= protocol._audit_rows(8)))
        extras = mixed_block()[1::5]
        for length in (1, edge - 1, edge, edge + 1):
            block = ps[:length] + extras
            assert l2_audit(block) == [l2_audit(p) for p in block]

    def test_one_level_two_product_per_transform(self, monkeypatch):
        ps = [random_protocol_partition(8, 1 + s % 4, s) for s in range(40)]
        want = [l2_audit(p) for p in ps]
        shapes = []
        exact = protocol.level_transform

        def spy(values, k):
            shapes.append(values.shape[1])
            return exact(values, k)
        monkeypatch.setattr(protocol, "level_transform", spy)
        assert l2_audit(ps) == want
        cells, rows = sum(len(p.cells) for p in ps), protocol._audit_rows(8)
        full, rest = divmod(cells, rows)
        assert shapes == [rows] * full + [rest] * (rest > 0)

    def test_single_and_empty(self):
        p = random_protocol_partition(8, 3, 5)
        assert isinstance(l2_audit(p), protocol.L2Audit)
        assert l2_audit([p]) == [l2_audit(p)]
        assert l2_audit([]) == []


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


class TestL2AuditFastPath:
    @pytest.mark.parametrize("n, cost", [(8, c) for c in range(1, 7)] +
                             [(16, 2), (16, 4)])
    def test_mass_equals_full_spectrum_mass(self, n, cost):
        # Costs 5 and 6 at n = 8 give more cells than one transform block.
        for seed in range(3):
            p = random_protocol_partition(n, cost, seed)
            assert l2_audit(p).l2_mass == level_mass(protocol_spectrum(p), 2)

    def test_mass_across_block_boundary(self):
        p = random_protocol_partition(8, 7, seed=1)
        assert len(p.cells) > 2 * AUDIT_BLOCK
        assert l2_audit(p).l2_mass == level_mass(protocol_spectrum(p), 2)


class TestDenseValidation:
    FULL = np.ones(4, dtype=bool)
    HALF = np.arange(4) < 2

    def test_overlap_rejected_with_message(self):
        with pytest.raises(PartitionError, match="overlap"):
            RectanglePartition(2, 1, [Cell(self.FULL, self.HALF, 1),
                                      Cell(self.HALF, self.FULL, -1)])

    def test_missing_coverage_rejected_with_message(self):
        with pytest.raises(PartitionError, match="cover 4 of 16 input pairs"):
            RectanglePartition(2, 1, [Cell(self.HALF, self.HALF, 1)])

    def test_overlap_reported_before_coverage(self):
        # 16 + 8 pairs covered, and the cells share HALF x HALF.
        with pytest.raises(PartitionError, match="overlap"):
            RectanglePartition(2, 1, [Cell(self.FULL, self.FULL, 1),
                                      Cell(self.FULL, self.HALF, -1)])

    def test_overlap_on_one_side_only_accepted(self):
        for alice_side in (True, False):
            cells = [Cell(self.FULL, side, s) if alice_side
                     else Cell(side, self.FULL, s)
                     for side, s in ((self.HALF, 1), (~self.HALF, -1))]
            assert len(RectanglePartition(2, 1, cells).cells) == 2

    @pytest.mark.parametrize("k", [1, 2])
    def test_overlap_at_last_point_of_short_window(self, k):
        # 2^k < 8 points, so each packed mask byte carries pad bits.  The
        # Alice sides meet only at the last point; one point is uncovered,
        # so the total measure is right and only the overlap test fails.
        last = np.arange(1 << k) == (1 << k) - 1
        first = np.arange(1 << k) == 0
        full = np.ones(1 << k, dtype=bool)
        with pytest.raises(PartitionError, match="overlap"):
            RectanglePartition(k, 1, [Cell(~first, full, 1),
                                      Cell(last, full, -1)])
        assert len(RectanglePartition(k, 1, [Cell(~last, full, 1),
                                             Cell(last, full, -1)]).cells) == 2

    def test_overlap_found_in_a_later_block(self):
        cells = random_protocol_partition(8, 6, seed=0).cells
        assert len(cells) > AUDIT_BLOCK + 4
        dup = cells[AUDIT_BLOCK + 4]
        with pytest.raises(PartitionError, match="overlap"):
            RectanglePartition(8, 7, cells + [Cell(dup.alice, dup.bob, 1)])

    def test_cost_ten_partition_validates(self):
        p = random_protocol_partition(8, 10, seed=2)
        assert AUDIT_BLOCK < len(p.cells) <= 1 << 10
        alice = np.array([c.alice for c in p.cells], dtype=np.float64)
        bob = np.array([c.bob for c in p.cells], dtype=np.float64)
        assert np.array_equal(alice.T @ bob, np.ones((1 << 8, 1 << 8)))


class TestWindowValidation:
    """Window cells are validated exactly at any input length."""

    FULL = np.ones(4, dtype=bool)
    HALF = np.arange(4) < 2

    @pytest.mark.parametrize("n", [20, 128])
    def test_split_window_accepted(self, n):
        cells = [Cell(side, self.FULL, s)
                 for side, s in ((self.HALF, 1), (~self.HALF, -1))]
        p = RectanglePartition(n, 1, cells, window=(3, n - 1))
        assert p.window.tolist() == [3, n - 1]

    @pytest.mark.parametrize("n", [20, 128])
    def test_overlap_rejected(self, n):
        with pytest.raises(PartitionError, match="overlap"):
            RectanglePartition(n, 1, [Cell(self.FULL, self.FULL, 1),
                                      Cell(self.FULL, self.HALF, -1)],
                               window=(3, n - 1))

    @pytest.mark.parametrize("n", [20, 128])
    def test_gap_rejected(self, n):
        with pytest.raises(PartitionError, match="cover"):
            RectanglePartition(n, 1, [Cell(self.HALF, self.HALF, 1)],
                               window=(3, n - 1))

    @pytest.mark.parametrize("n", [20, 128])
    @pytest.mark.parametrize("window", ["unsorted", "duplicate", "negative",
                                        "past-end"])
    def test_bad_window_rejected(self, n, window):
        window = {"unsorted": (7, 3), "duplicate": (3, 3),
                  "negative": (-1, 3), "past-end": (3, n)}[window]
        with pytest.raises(ValueError, match="window"):
            RectanglePartition(n, 2, [Cell(self.FULL, self.FULL, 1)],
                               window=window)

    @pytest.mark.parametrize("n", [20, 128])
    def test_window_over_cap_rejected_before_allocation(self, n):
        point = np.ones(1, dtype=bool)
        tracemalloc.start()
        try:
            for window in (range(DENSE_CAP + 1), None):  # None: all n
                with pytest.raises(ResourceLimitError):
                    RectanglePartition(n, 0, [Cell(point, point, 1)],
                                       window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << DENSE_CAP

    def test_empty_partition_rejected(self):
        with pytest.raises(PartitionError,
                           match="cells cover 0 of 256 input pairs"):
            RectanglePartition(4, 0, [])

    @pytest.mark.parametrize("n", [20, 128])
    def test_mask_length_must_match_window(self, n):
        with pytest.raises(ValueError, match="masks of length"):
            RectanglePartition(n, 0, [Cell(self.FULL, self.FULL, 1)],
                               window=(3,))


class TestWindowCells:
    """Code bit b of a window mask is coordinate R[b], and the audit is
    exact over the window at any input length."""

    @pytest.mark.parametrize("i, j", [(0, 0), (1, 3), (5, 62), (63, 17)])
    def test_probe_evaluates_its_monomial(self, i, j):
        N = 64
        gen = substream(12, 0)
        x = uniform_sign_rows(gen, (1000, 2 * N))
        y = uniform_sign_rows(gen, (1000, 2 * N))
        w = 1 - 2 * ((i & j).bit_count() % 2)
        probe = forrelation_probe_partition(ForrParams(N), i, j)
        assert np.array_equal(probe.evaluate_rows(x, y),
                              w * x[:, i] * x[:, N + j] * y[:, i] * y[:, N + j])
        # The probe's masks are symmetric in the two window bits; these are
        # not, so they fail under a reversed bit order.
        for coord in (i, N + j):
            p = product_sign_partition(2 * N, coord, window=(i, N + j))
            assert np.array_equal(p.evaluate_rows(x, y),
                                  x[:, coord] * y[:, coord])

    def test_window_spectrum_equals_full_spectrum(self):
        n = 8
        probe = forrelation_probe_partition(ForrParams(4), 1, 3)
        codes = signs_to_codes(codes_to_signs(np.arange(1 << n), n)
                               [:, probe.window])
        full = RectanglePartition(n, 2, [Cell(c.alice[codes], c.bob[codes],
                                              c.output) for c in probe.cells])
        coeffs = protocol_spectrum(probe).coeffs
        assert np.array_equal(coeffs, protocol_spectrum(full).coeffs)
        assert np.flatnonzero(coeffs).tolist() == [130]
        assert coeffs[130] == -1.0
        for coord in (1, 7):
            assert np.array_equal(
                protocol_spectrum(product_sign_partition(n, coord, (1, 7))).coeffs,
                protocol_spectrum(product_sign_partition(n, coord)).coeffs)

    @pytest.mark.parametrize("N", [4, 64, 1024])
    def test_probe_audit_exact_at_any_size(self, N):
        audit = l2_audit(forrelation_probe_partition(ForrParams(N), 1, 3))
        assert audit.l2_mass == 1.0
        assert audit.effective_cost == 6

    def test_trivial_audit_at_large_n(self):
        assert l2_audit(trivial_partition(1000)).l2_mass == 0.0


class TestPairParityAdversary:
    @pytest.mark.parametrize("n, m, want", [(8, 1, 1.0), (8, 3, 1.5),
                                            (10, 5, 1.875)])
    def test_level_two_mass_is_known(self, n, m, want):
        p = pair_parity_partition(n, m)
        assert p.cost == 2 * m and len(p.cells) == 1 << (2 * m)
        assert pair_parity_mass(m) == want
        mass = l2_audit(p).l2_mass
        assert abs(mass - want) <= 1e-12
        assert mass == level_mass(protocol_spectrum(p), 2)

    @pytest.mark.parametrize("m", [1, 3])
    def test_averaged_protocol_is_majority_of_pair_products(self, m):
        n = 8
        z = codes_to_signs(np.arange(1 << n), n).astype(np.int64)
        votes = sum(z[:, 2 * i] * z[:, 2 * i + 1] for i in range(m))
        assert np.array_equal(protocol_H(pair_parity_partition(n, m)).values,
                              np.sign(votes).astype(np.float64))

    def test_rejects_bad_pair_counts(self):
        for n, m in ((8, 2), (8, 0), (4, 3)):
            with pytest.raises(ValueError):
                pair_parity_partition(n, m)
        with pytest.raises(ResourceLimitError):
            pair_parity_partition(40, 9)

    @pytest.mark.parametrize("n", [18, 128])
    @pytest.mark.parametrize("m", [1, 3])
    def test_window_holds_the_pairs_at_any_length(self, n, m):
        p = pair_parity_partition(n, m)
        assert p.n == n and len(p.cells) == 4 ** m
        assert p.window.tolist() == list(range(2 * m))
        assert l2_audit(p).l2_mass == l2_audit(
            pair_parity_partition(8, m)).l2_mass


def referee_p_one(x: SignVector, y: SignVector) -> float:
    """The one-state referee: Alice's register, the referee gates one by
    one, then the swap-test probability."""
    half = x.n.bit_length() - 1
    state = StateVector(half, x.signs * y.signs / math.sqrt(x.n))
    for gate in referee_gates(half):
        apply_gate(state, gate)
    return swap_test_probability(state, half - 1)


def spy_p_one(monkeypatch) -> list:
    """Record every probability array the protocol's referee returns."""
    seen = []
    real = protocol.swap_test_probability

    def spy(state, control):
        p = real(state, control)
        seen.append(np.array(p, ndmin=1))
        return p
    monkeypatch.setattr(protocol, "swap_test_probability", spy)
    return seen


def instance_block(N: int, k: int, seed: int):
    """k instances: uniform pairs, a planted pair and a pair with x = y."""
    params = ForrParams(N)
    pairs = [random_instance(N, seed + i) for i in range(k)]
    if k > 1:
        inst = generate_instance(params, InstanceMode.PLANTED_YES, seed)
        pairs[1] = (inst.x, inst.y)
    if k > 2:
        pairs[2] = (pairs[2][0], pairs[2][0])
    cfgs = [QuantumProtocolConfig(params, copies=300 + 7 * i, seed=seed + i,
                                  threshold=0.5 + 0.05 * i)
            for i in range(k)]
    xs = np.stack([x.signs for x, _ in pairs])
    ys = np.stack([y.signs for _, y in pairs])
    return pairs, cfgs, xs, ys


class TestBatchedProtocol:
    """(k, 2N) stacks through one referee pass give each instance the bits
    of a one-instance run."""

    @pytest.mark.parametrize("N", [4, 8, 16, 64, 1024])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_p_one_equals_one_state_referee(self, N, k, monkeypatch):
        pairs, cfgs, xs, ys = instance_block(N, k, 100 * k + N)
        seen = spy_p_one(monkeypatch)
        run_quantum_protocol(xs, ys, cfgs)
        assert len(seen) == 1 and seen[0].shape == (k,)
        want = np.array([referee_p_one(x, y) for x, y in pairs])
        assert np.count_nonzero(seen[0] != want) == 0
        if N <= 16:
            full = np.array([copy_accept_probability(x, y) for x, y in pairs])
            assert np.max(np.abs(seen[0] - full)) <= 1e-12

    @pytest.mark.parametrize("N", [4, 16, 64])
    def test_stats_equal_single_calls(self, N):
        pairs, cfgs, xs, ys = instance_block(N, 4, 7 * N)
        batch = run_quantum_protocol(xs, ys, cfgs)
        assert isinstance(batch, list) and len(batch) == 4
        for (x, y), cfg, got in zip(pairs, cfgs, batch):
            want = run_quantum_protocol(x, y, cfg)
            assert np.array_equal(got.per_copy_bits, want.per_copy_bits)
            assert got.per_copy_bits.dtype == want.per_copy_bits.dtype
            for name in ("ones_fraction", "decision", "qubits_sent",
                         "oracle_calls", "gate_count"):
                assert getattr(got, name) == getattr(want, name), name

    def test_configs_stay_with_their_rows(self):
        # Identical rows with distinct seeds: a config paired with another
        # row's seed or copy count shows in the bits.
        N = 16
        x, y = random_instance(N, 3)
        params = ForrParams(N)
        cfgs = [QuantumProtocolConfig(params, copies=100 + i, seed=i)
                for i in range(3)]
        out = run_quantum_protocol(np.stack([x.signs] * 3),
                                   np.stack([y.signs] * 3), cfgs)
        for cfg, got in zip(cfgs, out):
            assert got.per_copy_bits.size == cfg.copies
            want = run_quantum_protocol(x, y, cfg)
            assert np.array_equal(got.per_copy_bits, want.per_copy_bits)

    def test_one_row_stack_with_one_config_list(self):
        x, y = random_instance(8, 4)
        cfg = QuantumProtocolConfig(ForrParams(8), copies=50, seed=9)
        [got] = run_quantum_protocol(x.signs[None], y.signs[None], [cfg])
        want = run_quantum_protocol(x.signs, y.signs, cfg)
        assert np.array_equal(got.per_copy_bits, want.per_copy_bits)

    def test_one_referee_pass_per_block(self, monkeypatch):
        calls = []
        real = protocol.apply_gate

        def spy(state, gate):
            calls.append(state.amps.shape)
            return real(state, gate)
        monkeypatch.setattr(protocol, "apply_gate", spy)
        _, cfgs, xs, ys = instance_block(64, 5, 1)
        run_quantum_protocol(xs, ys, cfgs)
        assert calls == [(5, 128)] * len(referee_gates(7))

    def test_block_validation(self):
        _, cfgs, xs, ys = instance_block(8, 3, 2)
        with pytest.raises(ValueError, match="shapes differ"):
            run_quantum_protocol(xs, ys[:2], cfgs)
        with pytest.raises(ValueError, match="configs"):
            run_quantum_protocol(xs, ys, cfgs[:2])
        with pytest.raises(ValueError, match="configs"):
            run_quantum_protocol(xs[:0], ys[:0], [])
        with pytest.raises(ValueError, match="configs"):
            run_quantum_protocol(xs, ys, cfgs[0])
        other = [QuantumProtocolConfig(ForrParams(8, eps_override=0.5),
                                       copies=10)] + cfgs[1:]
        with pytest.raises(ValueError, match="same params"):
            run_quantum_protocol(xs, ys, other)
        with pytest.raises(ValueError, match="length"):
            run_quantum_protocol(
                xs, ys, [QuantumProtocolConfig(ForrParams(16), copies=1)] * 3)
        bad = xs.copy()
        bad[1, 0] = 0
        with pytest.raises(ValueError, match=r"\+-1"):
            run_quantum_protocol(bad, ys, cfgs)
        with pytest.raises(ValueError, match=r"\+-1"):
            run_quantum_protocol(xs[None], ys[None], cfgs)
