"""Tests for the gate-level state-vector simulator."""

import math
import tracemalloc

import numpy as np
import pytest

from forrlab import quantum_sim
from forrlab._rng import substream
from forrlab.boolean_fourier import SignVector
from forrlab.errors import InvariantError, ResourceLimitError
from forrlab.quantum_sim import (
    Circuit,
    CNot,
    Hadamard,
    Measure,
    Oracle,
    RPi8,
    StateVector,
    apply_gate,
    bell_prep_gates,
    check_state_size,
    controlled_h_gates,
    e_operator,
    not_gates,
    simulate,
    swap_test_probability,
    swap_test_shots,
    verify_controlled_h_decomposition,
)


def random_state(m: int, seed: int) -> StateVector:
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=1 << m)
    amps /= np.linalg.norm(amps)
    return StateVector.from_amplitudes(amps)


def basis_state(m: int, index: int) -> StateVector:
    amps = np.zeros(1 << m, dtype=complex)
    amps[index] = 1.0
    return StateVector(m, amps)


class TestSingleQubitGates:
    def test_hadamard_squares_to_identity(self):
        sv = random_state(4, 0)
        ref = sv.amps.copy()
        apply_gate(sv, Hadamard(2))
        apply_gate(sv, Hadamard(2))
        assert np.max(np.abs(sv.amps - ref)) <= 1e-12

    def test_hadamard_on_zero(self):
        sv = StateVector.zero(1)
        apply_gate(sv, Hadamard(0))
        assert np.allclose(sv.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_rotation_matrix_entries(self):
        sv = StateVector.zero(1)
        apply_gate(sv, RPi8(0))
        assert np.allclose(sv.amps, [math.cos(math.pi / 8), math.sin(math.pi / 8)])

    def test_rotation_sixteenth_power_is_identity(self):
        sv = random_state(3, 1)
        ref = sv.amps.copy()
        for _ in range(16):
            apply_gate(sv, RPi8(1))
        assert np.max(np.abs(sv.amps - ref)) <= 1e-12

    def test_inverses_restore_state(self):
        sv = random_state(5, 2)
        ref = sv.amps.copy()
        apply_gate(sv, Hadamard(3))
        apply_gate(sv, Hadamard(3))
        apply_gate(sv, CNot(1, 4))
        apply_gate(sv, CNot(1, 4))
        apply_gate(sv, RPi8(0))
        for _ in range(15):
            apply_gate(sv, RPi8(0))
        assert np.max(np.abs(sv.amps - ref)) <= 1e-8

    def test_qubit_range_checked(self):
        sv = StateVector.zero(2)
        with pytest.raises(ValueError):
            apply_gate(sv, Hadamard(2))
        with pytest.raises(ValueError):
            apply_gate(sv, CNot(0, 5))


class TestCNot:
    def test_truth_table(self):
        # control qubit 0, target qubit 2 inside a 3-qubit register
        for a in range(8):
            sv = basis_state(3, a)
            apply_gate(sv, CNot(0, 2))
            want = a ^ (4 if a & 1 else 0)
            assert sv.amps[want] == 1.0

    def test_truth_table_control_above_target(self):
        for a in range(8):
            sv = basis_state(3, a)
            apply_gate(sv, CNot(2, 1))
            want = a ^ (2 if a & 4 else 0)
            assert sv.amps[want] == 1.0

    def test_rejects_equal_wires(self):
        with pytest.raises(ValueError):
            CNot(1, 1)


class TestOracle:
    def test_all_plus_is_identity(self):
        sv = random_state(4, 3)
        ref = sv.amps.copy()
        apply_gate(sv, Oracle(SignVector(np.ones(16, dtype=np.int8)), start=0))
        assert np.array_equal(sv.amps, ref)

    def test_diagonal_action_on_block(self):
        signs = SignVector(np.array([1, -1, 1, -1], dtype=np.int8))
        sv = random_state(4, 4)
        ref = sv.amps.copy()
        apply_gate(sv, Oracle(signs, start=1))
        idx = np.arange(16)
        sub = (idx >> 1) & 0b11
        assert np.allclose(sv.amps, ref * np.where(sub % 2 == 1, -1, 1))

    def test_short_sign_string_leaves_tail_fixed(self):
        signs = SignVector(np.array([-1, -1, -1], dtype=np.int8))
        sv = random_state(2, 5)
        ref = sv.amps.copy()
        apply_gate(sv, Oracle(signs, start=0))
        assert np.allclose(sv.amps[:3], -ref[:3])
        assert sv.amps[3] == ref[3]

    def test_width_invariant(self):
        signs = SignVector(np.ones(5, dtype=np.int8))
        assert Oracle(signs, start=0).width == 3
        with pytest.raises(TypeError):
            Oracle(signs, start=0, width=2)

    def test_commutes_outside_block(self):
        gen = substream(17, 0)
        signs = SignVector((1 - 2 * gen.integers(0, 2, 4)).astype(np.int8))
        for outside in (Hadamard(3), RPi8(3), CNot(3, 4)):
            a = random_state(5, 6)
            b = StateVector(5, a.amps.copy())
            apply_gate(a, Oracle(signs, start=0))
            apply_gate(a, outside)
            apply_gate(b, outside)
            apply_gate(b, Oracle(signs, start=0))
            assert np.max(np.abs(a.amps - b.amps)) <= 1e-12


class TestMeasure:
    def test_born_rule_frequencies(self):
        gen = substream(7, 0)
        base = StateVector.zero(1)
        apply_gate(base, Hadamard(0))
        ones = 0
        shots = 100_000
        for _ in range(shots):
            sv = base.copy()
            if apply_gate(sv, Measure(0), gen) == -1:
                ones += 1
        se = math.sqrt(0.25 / shots)
        assert abs(ones / shots - 0.5) <= 3 * se

    def test_collapse_and_renormalize(self):
        sv = StateVector.zero(2)
        apply_gate(sv, Hadamard(0))
        apply_gate(sv, CNot(0, 1))  # Bell state
        out = apply_gate(sv, Measure(0), substream(8, 0))
        assert out in (1, -1)
        assert sv.norm() == pytest.approx(1.0, abs=1e-12)
        # second qubit is now perfectly correlated
        out2 = apply_gate(sv, Measure(1), substream(8, 1))
        assert out2 == out

    def test_requires_rng(self):
        sv = StateVector.zero(1)
        with pytest.raises(ValueError):
            apply_gate(sv, Measure(0))

    def test_denormalized_state_rejected(self):
        sv = StateVector.zero(1)
        sv.amps *= 2.0
        with pytest.raises(InvariantError):
            apply_gate(sv, Measure(0), substream(9, 0))


class TestControlledH:
    def test_decomposition_matches_block_matrix(self):
        assert verify_controlled_h_decomposition(1e-10) <= 1e-10

    def test_inactive_control(self):
        sv = random_state(3, 10)
        # zero out the control-1 branch so control is at the +1 label
        view = sv.amps.reshape(-1, 2, 2)
        view[:, 1, :] = 0
        sv.amps /= np.linalg.norm(sv.amps)
        ref = sv.amps.copy()
        for g in controlled_h_gates(control=1, target=0):
            apply_gate(sv, g)
        assert np.max(np.abs(sv.amps - ref)) <= 1e-12

    def test_active_control_applies_hadamard(self):
        sv = basis_state(2, 0b10)  # control qubit 1 set, target 0 clear
        for g in controlled_h_gates(control=1, target=0):
            apply_gate(sv, g)
        assert np.allclose(sv.amps, [0, 0, 1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_direct_agrees_with_sequence(self):
        # Block matrix |0><0| (x) I (x) I (x) I + |1><1| (x) I (x) H (x) I,
        # kron factors from qubit 3 down to qubit 0 (little-endian indices).
        eye, h = np.eye(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        off, on = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        block = (np.kron(np.kron(off, eye), np.kron(eye, eye))
                 + np.kron(np.kron(on, eye), np.kron(h, eye)))
        for seed in range(5):
            a = random_state(4, 20 + seed)
            want = block @ a.amps
            for g in controlled_h_gates(control=3, target=1):
                apply_gate(a, g)
            assert np.max(np.abs(a.amps - want)) <= 1e-10

    def test_broken_sequence_fails_the_check(self, monkeypatch):
        sequence = quantum_sim._controlled_h_sequence
        monkeypatch.setattr(quantum_sim, "_controlled_h_sequence",
                            lambda control, target: sequence(control, target)[:-1])
        quantum_sim._verify_controlled_h_once.cache_clear()
        with pytest.raises(InvariantError):
            controlled_h_gates(1, 0)
        state = StateVector.zero(2)
        with pytest.raises(InvariantError):
            for g in controlled_h_gates(1, 0):
                apply_gate(state, g)

    def test_rejects_equal_wires(self):
        state = StateVector.zero(2)
        with pytest.raises(ValueError):
            for g in controlled_h_gates(0, 0):
                apply_gate(state, g)
        with pytest.raises(ValueError):
            controlled_h_gates(1, 1)


class TestEOperator:
    def test_exhaustive_basis_action_block3(self):
        for a in range(8):
            for b in range(8):
                sv = basis_state(6, a + 8 * b)
                e_operator(sv, range(3), range(3, 6))
                assert sv.amps[a + 8 * (b ^ a)] == 1.0

    def test_doubled_to_cleared_and_back(self):
        for i in range(8):
            sv = basis_state(6, i + 8 * i)
            e_operator(sv, range(3), range(3, 6))
            assert sv.amps[i] == 1.0
            e_operator(sv, range(3), range(3, 6))
            assert sv.amps[i + 8 * i] == 1.0

    def test_involution_on_random_state(self):
        sv = random_state(6, 11)
        ref = sv.amps.copy()
        e_operator(sv, range(3), range(3, 6))
        e_operator(sv, range(3), range(3, 6))
        assert np.max(np.abs(sv.amps - ref)) <= 1e-12

    def test_rejects_bad_blocks(self):
        sv = StateVector.zero(4)
        with pytest.raises(ValueError):
            e_operator(sv, range(2), range(1, 3))
        with pytest.raises(ValueError):
            e_operator(sv, range(2), range(2, 5))


class TestSwapTest:
    @staticmethod
    def superposed(phi: np.ndarray, psi: np.ndarray) -> StateVector:
        dim = phi.shape[0]
        amps = np.zeros(2 * dim, dtype=complex)
        amps[:dim] = phi / math.sqrt(2)
        amps[dim:] = psi / math.sqrt(2)
        return StateVector.from_amplitudes(amps)

    def test_identical_states_always_accept(self):
        gen = np.random.default_rng(12)
        phi = gen.normal(size=8)
        phi /= np.linalg.norm(phi)
        sv = self.superposed(phi, phi)
        assert swap_test_probability(sv, control=3) == pytest.approx(1.0)
        for s in range(20):
            work = sv.copy()
            apply_gate(work, Hadamard(3))
            assert apply_gate(work, Measure(3), substream(s, 0)) == 1

    def test_opposite_states_always_reject(self):
        gen = np.random.default_rng(13)
        phi = gen.normal(size=8)
        phi /= np.linalg.norm(phi)
        sv = self.superposed(phi, -phi)
        assert swap_test_probability(sv, control=3) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_states_are_even(self):
        phi = np.zeros(8)
        psi = np.zeros(8)
        phi[0] = 1.0
        psi[5] = 1.0
        sv = self.superposed(phi, psi)
        bits = swap_test_shots(sv, 3, 100_000, substream(14, 0))
        se = math.sqrt(0.25 / bits.size)
        assert abs(bits.mean() - 0.5) <= 3 * se

    def test_shots_match_single_shot_path(self):
        gen = np.random.default_rng(15)
        phi = gen.normal(size=4)
        phi /= np.linalg.norm(phi)
        psi = gen.normal(size=4)
        psi /= np.linalg.norm(psi)
        sv = self.superposed(phi, psi)
        p = swap_test_probability(sv, 2)
        single = []
        for t in range(500):
            work = sv.copy()
            apply_gate(work, Hadamard(2))
            single.append(apply_gate(work, Measure(2), substream(100, t)) == 1)
        batch = swap_test_shots(sv, 2, 500, substream(200, 0))
        se = math.sqrt(p * (1 - p) / 500)
        assert abs(np.mean(single) - p) <= 4 * se
        assert abs(batch.mean() - p) <= 4 * se

    @pytest.mark.parametrize("shots", [1, 3, 500])
    def test_shots_refuse_a_batch(self, shots):
        # Three states; with three shots, shot t would read state t.
        amps = np.zeros((3, 8))
        amps[:, 0] = 1.0
        batch = StateVector(3, amps)
        with pytest.raises(ValueError,
                           match="^swap test shots need one state, got a "
                                 "batch of 3$"):
            swap_test_shots(batch, 2, shots, substream(16, 0))


class TestBellPairs:
    def test_single_pair(self):
        sv, _, _ = simulate(Circuit(2, bell_prep_gates(1)))
        assert np.allclose(sv.amps, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_three_pairs_doubled_indices(self):
        sv, _, _ = simulate(Circuit(6, bell_prep_gates(3)))
        nz = np.flatnonzero(np.abs(sv.amps) > 1e-15)
        assert list(nz) == [a + 8 * a for a in range(8)]
        assert np.allclose(sv.amps[nz], 1 / math.sqrt(8))

    def test_single_side_marginal_uniform(self):
        m = 3
        sv, _, _ = simulate(Circuit(2 * m, bell_prep_gates(m)))
        probs = np.abs(sv.amps.reshape(1 << m, 1 << m)) ** 2
        marginal = probs.sum(axis=0)  # Alice's block is the low bits
        assert np.allclose(marginal, 1 / (1 << m), atol=1e-12)
        # sampled: measure Alice's qubits on fresh copies
        gen = substream(16, 0)
        counts = np.zeros(1 << m)
        shots = 4096
        for _ in range(shots):
            work = sv.copy()
            outcome = 0
            for q in range(m):
                if apply_gate(work, Measure(q), gen) == -1:
                    outcome |= 1 << q
            counts[outcome] += 1
        expected = shots / (1 << m)
        # 3 sigma per cell for a binomial(shots, 1/8)
        se = math.sqrt(shots * (1 / 8) * (7 / 8))
        assert np.max(np.abs(counts - expected)) <= 3.5 * se

    def test_cap_enforced(self, monkeypatch):
        with pytest.raises(ResourceLimitError, match="bytes"):
            StateVector.zero(28)
        monkeypatch.setattr(quantum_sim, "MAX_STATE_BYTES", 8 << 6)
        assert simulate(Circuit(6, bell_prep_gates(3)))[0].m == 6
        with pytest.raises(ResourceLimitError):
            simulate(Circuit(8, bell_prep_gates(4)))

    def test_cap_checked_before_allocation(self):
        # 16 TiB each: an allocation would fail as numpy's MemoryError.
        with pytest.raises(ResourceLimitError, match="bytes"):
            StateVector.zero(40)
        with pytest.raises(ResourceLimitError, match="bytes"):
            simulate(Circuit(40, bell_prep_gates(20)))


class TestCircuit:
    def test_norm_drift_over_many_gates(self):
        m = 12
        gen = substream(18, 0)
        sv = random_state(m, 19)
        for _ in range(10_000):
            kind = gen.integers(3)
            q = int(gen.integers(m))
            if kind == 0:
                apply_gate(sv, Hadamard(q))
            elif kind == 1:
                apply_gate(sv, RPi8(q))
            else:
                t = int(gen.integers(m - 1))
                apply_gate(sv, CNot(q, t if t < q else t + 1))
        assert abs(sv.norm() - 1.0) <= 1e-9

    def test_simulate_counts_operators(self):
        circ = Circuit(2, [Hadamard(0), CNot(0, 1), Measure(0), Measure(1)])
        state, outcomes, size = simulate(circ, substream(20, 0))
        assert size == 4
        assert len(outcomes) == 2
        assert outcomes[0] == outcomes[1]  # Bell correlation

    def test_not_gates_flip_basis(self):
        sv = StateVector.zero(3)
        for g in not_gates(1):
            apply_gate(sv, g)
        assert abs(sv.amps[0b010]) == pytest.approx(1.0, abs=1e-12)

    def test_bell_prep_gate_list_matches_builder(self):
        # simulate's full-circuit run against the gates applied one by one
        # and against the amplitudes written out: 1/2 on a + 4a.
        circ = Circuit(4, bell_prep_gates(2))
        state, _, _ = simulate(circ)
        built = StateVector.zero(4)
        for g in bell_prep_gates(2):
            apply_gate(built, g)
        want = np.zeros(16)
        want[[a + 4 * a for a in range(4)]] = 0.5
        assert np.max(np.abs(state.amps - built.amps)) <= 1e-12
        assert np.max(np.abs(state.amps - want)) <= 1e-12

    def test_from_amplitudes_must_normalize(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes(np.array([1.0, 1.0]))


class TestRealState:
    """Every native gate is real, so a state holds float64 amplitudes."""

    @pytest.mark.parametrize("build", ["init", "from_amplitudes"])
    def test_nonzero_imaginary_part_refused(self, build):
        amps = np.full(4, 0.5, dtype=complex)
        amps[3] = 0.5j
        with pytest.raises(ValueError, match="^amplitudes must be real"):
            if build == "init":
                StateVector(2, amps)
            else:
                StateVector.from_amplitudes(amps)

    def test_zero_imaginary_part_accepted(self):
        real = random_batch(3, 3, 1)
        for state, want in ((StateVector(3, real.astype(complex)), real),
                            (StateVector(3, real[0].astype(complex)), real[0]),
                            (StateVector.from_amplitudes(
                                real[1].astype(complex)), real[1])):
            assert state.amps.dtype == np.float64
            assert np.array_equal(state.amps, want)

    def test_float64_contiguous_input_used_in_place(self):
        amps = random_batch(2, 3, 2)
        state = StateVector(3, amps)
        assert state.amps is amps
        apply_gate(state, Hadamard(1))
        assert np.array_equal(amps, state.amps)

    def test_other_input_converted_to_float64(self):
        for amps in (np.array([1, 0, 0, 0], dtype=np.int8),
                     np.array([1.0, 0, 0, 0], dtype=np.float32), [1, 0, 0, 0]):
            state = StateVector(2, amps)
            assert state.amps.dtype == np.float64
            assert not np.shares_memory(state.amps, amps)
            assert state.amps.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_gates_keep_float64(self):
        state, _, _ = simulate(Circuit(3, batch_gates(3)))
        assert state.amps.dtype == np.float64
        assert simulate(Circuit(4, bell_prep_gates(2)))[0].amps.dtype == np.float64

    def test_27_qubits_fit_and_28_refused_without_allocation(self):
        tracemalloc.start()
        try:
            check_state_size(27)
            with pytest.raises(ResourceLimitError,
                               match=f"^28 qubits need {8 << 28} bytes"):
                check_state_size(28)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


def random_batch(k: int, m: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=(k, 1 << m))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def batch_gates(m: int) -> list:
    """Every kernel on every qubit it can take: H, R, CNOT with the control
    above and below the target, and oracles of each width and offset."""
    gen = np.random.default_rng(m)
    gates = [Hadamard(q) for q in range(m)] + [RPi8(q) for q in range(m)]
    gates += [CNot(c, t) for c in range(m) for t in range(m) if c != t]
    for width in range(1, m + 1):
        for start in range(m - width + 1):
            # A full block and, from width 2, one that leaves entries fixed.
            for n in sorted({1 << width, (1 << (width - 1)) + 1}):
                signs = 1 - 2 * gen.integers(0, 2, size=n)
                gate = Oracle(SignVector(signs), start)
                assert gate.width == width
                gates.append(gate)
    return gates


class TestBatchContract:
    """A (k, 2^m) StateVector holds k independent states: every kernel acts
    on each row exactly as on that row alone."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_gate_equals_row_by_row(self, m, k):
        amps = random_batch(k, m, 10 * m + k)
        gates = batch_gates(m)
        assert any(isinstance(g, Oracle) for g in gates)
        if m >= 2:
            assert any(isinstance(g, CNot) and g.control > g.target
                       for g in gates)
            assert any(isinstance(g, CNot) and g.control < g.target
                       for g in gates)
        for gate in gates:
            batch = StateVector(m, amps.copy())
            apply_gate(batch, gate)
            for r in range(k):
                row = StateVector(m, amps[r].copy())
                apply_gate(row, gate)
                assert np.array_equal(batch.amps[r], row.amps), (gate, r)

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_gate_sequence_and_swap_probability_equal_row_by_row(self, m):
        amps = random_batch(4, m, m)
        gates = batch_gates(m)
        batch = StateVector(m, amps.copy())
        for gate in gates:
            apply_gate(batch, gate)
        for control in range(m):
            p = swap_test_probability(batch, control)
            assert p.shape == (4,)
            for r in range(4):
                row = StateVector(m, amps[r].copy())
                for gate in gates:
                    apply_gate(row, gate)
                assert np.array_equal(batch.amps[r], row.amps)
                single = swap_test_probability(row, control)
                assert isinstance(single, float)
                assert p[r] == single

    def test_rows_are_not_summed_together(self):
        # Rows with different probabilities keep them: a reduction over the
        # batch axis would give every row the same value.
        amps = np.zeros((3, 4), dtype=complex)
        amps[0, 0] = 1.0              # bit 1 is 0 for sure
        amps[1, 2] = 1.0              # bit 1 is 1 for sure
        amps[2, [0, 2]] = 1 / math.sqrt(2)  # even
        sv = StateVector(2, amps)
        p0, p1 = quantum_sim._bit_probabilities(sv.amps, 1)
        assert p0.tolist() == [1.0, 0.0, pytest.approx(0.5)]
        assert p1.tolist() == [0.0, 1.0, pytest.approx(0.5)]

    def test_measure_on_batch_rejected(self):
        sv = StateVector(2, random_batch(2, 2, 0))
        before = sv.amps.copy()
        with pytest.raises(ValueError, match="batch"):
            apply_gate(sv, Measure(0), substream(1, 0))
        assert np.array_equal(sv.amps, before)

    def test_one_denormalized_row_rejected(self):
        amps = random_batch(3, 3, 5)
        swap_test_probability(StateVector(3, amps), 2)
        amps[1] = 0.0
        amps[1, 6] = 2.0
        four = r"total probability (4\.0|3\.9999)"
        with pytest.raises(InvariantError, match=four):
            swap_test_probability(StateVector(3, amps), 2)
        amps[2] *= 3.0  # the message names the first bad row
        with pytest.raises(InvariantError, match=four):
            swap_test_probability(StateVector(3, amps), 2)

    def test_batch_bytes_capped_before_allocation(self, monkeypatch):
        class NoArray:
            """Has a shape; any conversion to an array is an error."""

            def __init__(self, shape):
                self.shape = shape

            def __array__(self, *args, **kwargs):
                raise AssertionError("amplitudes converted before the check")

        monkeypatch.setattr(quantum_sim, "MAX_STATE_BYTES", 8 << 6)
        assert StateVector(6, np.zeros((1, 64))).amps.shape == (1, 64)
        assert StateVector(4, np.zeros((4, 16))).amps.shape == (4, 16)
        with pytest.raises(ResourceLimitError, match="5 states of 4 qubits"):
            StateVector(4, NoArray((5, 16)))
        with pytest.raises(ResourceLimitError, match="2 states of 6 qubits"):
            StateVector(6, NoArray((2, 64)))
        with pytest.raises(ResourceLimitError, match="^7 qubits need"):
            check_state_size(7)
        check_state_size(6)

    def test_bad_batch_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            StateVector(2, np.zeros((2, 8)))
        with pytest.raises(ValueError, match="shape"):
            StateVector(2, np.zeros((1, 2, 4)))

    def test_non_contiguous_input_is_acted_on(self):
        # A strided view is copied to a contiguous buffer, so the kernels'
        # reshapes stay views of the state's own amplitudes.
        amps = random_batch(4, 3, 9)[::2]
        sv = StateVector(3, amps)
        apply_gate(sv, Hadamard(0))
        for r in range(2):
            row = StateVector(3, amps[r].copy())
            apply_gate(row, Hadamard(0))
            assert np.array_equal(sv.amps[r], row.amps)
