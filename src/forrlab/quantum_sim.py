"""State-vector simulation of the {H, CNOT, R_pi/8, oracle, measure} gate set.

Conventions, fixed here once and used everywhere:

* Qubit ordering is little-endian: qubit 0 is the least significant bit of a
  basis index, so a contiguous block [start, start + width) encodes the
  sub-index (i >> start) & (2^width - 1).
* Basis labels: bit value 0 <-> sign +1, bit value 1 <-> sign -1.  The
  all-zero index is the initialization state.  A measurement of qubit q
  returns the sign (+1 for bit 0, -1 for bit 1) with the Born probability
  and collapses the state.
* An oracle for a sign string s multiplies the amplitude of sub-index i of
  its block by s[i] when i < len(s) and leaves larger sub-indices fixed.
* Controlled gates act when the control bit is 1 (the -1 label).

Unitary kernels mutate the amplitude array in place; a StateVector is owned
by one logical thread while it is being mutated.  Measurement is the only
operation that consumes randomness, always from a caller-provided generator.

A StateVector may also hold a batch of k independent states as a (k, 2^m)
array.  Every unitary kernel reshapes the flat buffer into blocks that
divide 2^m, so rows never mix and each row gets the bits a one-state run
would; measurement refuses a batch.

Amplitudes are real float64.  Every native gate is real: H and CNOT, the
rotation R_pi/8 = [[cos, -sin], [sin, cos]] and the +-1 oracles; so are the
referee's initial values x_i y_i / sqrt(2N).  No amplitude the simulator can
reach has an imaginary part, and a complex dtype would only double the
memory and work of every kernel.

A state or batch holds at most MAX_STATE_BYTES (1 GiB, 27 qubits for one
state) of amplitudes.  The five-gate controlled-H is checked against
diag(I, H) once per process; a failed check or a measurement on a
denormalized state raises InvariantError.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, Union

import numpy as np

from ._record import Record
from ._rng import bernoulli_bits
from .boolean_fourier import SignVector
from .errors import InvariantError, ResourceLimitError

__all__ = [
    "MAX_STATE_BYTES",
    "check_state_size",
    "StateVector",
    "Hadamard",
    "CNot",
    "RPi8",
    "Oracle",
    "Measure",
    "Gate",
    "Circuit",
    "apply_gate",
    "simulate",
    "controlled_h_gates",
    "not_gates",
    "e_operator",
    "e_operator_gates",
    "swap_test_probability",
    "swap_test_shots",
    "bell_prep_gates",
    "verify_controlled_h_decomposition",
]

MAX_STATE_BYTES = 1 << 30

_COS8 = math.cos(math.pi / 8)
_SIN8 = math.sin(math.pi / 8)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def check_state_size(m: int, rows: int = 1) -> None:
    """Reject a qubit count below 1, or ``rows`` states of m qubits whose
    real amplitudes, 8 bytes each, together need more than MAX_STATE_BYTES
    (one state fits up to 27 qubits); callers check before they allocate."""
    if m < 1:
        raise ValueError(f"qubit count must be positive, got {m}")
    need = rows * (8 << m)
    if need > MAX_STATE_BYTES:
        states = f"{rows} states of {m} qubits" if rows > 1 else f"{m} qubits"
        raise ResourceLimitError(f"{states} need {need} bytes of "
                                 f"amplitudes, over {MAX_STATE_BYTES}")


class StateVector:
    """Normalized real amplitudes over m qubits: one state of shape
    (2^m,), or a batch of k independent states of shape (k, 2^m).

    The amplitudes are held as C-contiguous float64, so the kernels'
    reshapes are views and act in place.  A float64 C-contiguous input is
    used in place, not copied: the gates then act on the caller's array.
    Any other input is converted to a new array.  Complex-typed input is
    accepted when its imaginary part is all zero and refused with
    ValueError otherwise.  The size of the whole batch is checked against
    MAX_STATE_BYTES before the amplitudes are converted.
    """

    __slots__ = ("m", "amps")

    def __init__(self, m: int, amps: np.ndarray):
        shape = np.shape(amps)
        check_state_size(m, shape[0] if len(shape) == 2 else 1)
        if shape[-1:] != (1 << m,) or len(shape) > 2:
            raise ValueError(f"amplitudes for m={m} must have shape "
                             f"({1 << m},) or (k, {1 << m}), got {shape}")
        amps = np.asarray(amps)
        if np.iscomplexobj(amps):
            if np.any(amps.imag):
                raise ValueError("amplitudes must be real: every native "
                                 "gate is real")
            amps = amps.real
        self.m = m
        self.amps = np.ascontiguousarray(amps, dtype=np.float64)

    @classmethod
    def zero(cls, m: int) -> "StateVector":
        """The all-zero basis state (every register at the +1 label)."""
        check_state_size(m)
        state = cls(m, np.zeros(1 << m))
        state.amps[0] = 1.0
        return state

    @classmethod
    def from_amplitudes(cls, amps: np.ndarray) -> "StateVector":
        """A copy of ``amps`` as a state; its norm must be 1."""
        amps = np.array(amps)
        state = cls(amps.size.bit_length() - 1, amps)
        if abs(state.norm() - 1.0) > 1e-9:
            raise ValueError(f"state is not normalized: |amps| = {state.norm()}")
        return state

    def copy(self) -> "StateVector":
        return StateVector(self.m, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def _check_qubit(self, q: int):
        if not 0 <= q < self.m:
            raise ValueError(f"qubit {q} out of range for m={self.m}")


# ---------------------------------------------------------------------------
# Gates

class Hadamard(Record):
    __slots__ = _compare = ("q",)

    def __init__(self, q: int):
        object.__setattr__(self, "q", q)


class CNot(Record):
    __slots__ = _compare = ("control", "target")

    def __init__(self, control: int, target: int):
        if control == target:
            raise ValueError("CNOT control and target must differ")
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "target", target)


class RPi8(Record):
    """Rotation by pi/8: [[cos, -sin], [sin, cos]]; its 16th power is I."""

    __slots__ = _compare = ("q",)

    def __init__(self, q: int):
        object.__setattr__(self, "q", q)


class Oracle(Record):
    """Sign oracle on the contiguous qubit block [start, start + width)."""

    __slots__ = _compare = ("signs", "start")

    def __init__(self, signs: SignVector, start: int):
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "start", start)

    @property
    def width(self) -> int:
        """Block width ceil(log2(len(signs))), at least one qubit."""
        return max(1, (self.signs.n - 1).bit_length())


class Measure(Record):
    __slots__ = _compare = ("q",)

    def __init__(self, q: int):
        object.__setattr__(self, "q", q)


Gate = Union[Hadamard, CNot, RPi8, Oracle, Measure]


class Circuit(Record):
    """An ordered gate list; ``size`` is the operator count.  Unlike the
    gates it is mutable, and so unhashable."""

    __slots__ = _compare = ("m", "gates")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, m: int, gates: list | None = None):
        self.m = m
        self.gates = [] if gates is None else gates

    @property
    def size(self) -> int:
        return len(self.gates)


# ---------------------------------------------------------------------------
# Kernels (in-place on the raw amplitude array)

def _pair_view(amps: np.ndarray, q: int) -> np.ndarray:
    """View with axis 1 enumerating the value of bit q."""
    return amps.reshape(-1, 2, 1 << q)


def _apply_h(amps: np.ndarray, q: int):
    view = _pair_view(amps, q)
    a0 = view[:, 0, :]
    a1 = view[:, 1, :]
    top = (a0 + a1) * _INV_SQRT2
    bot = (a0 - a1) * _INV_SQRT2
    view[:, 0, :] = top
    view[:, 1, :] = bot


def _apply_r(amps: np.ndarray, q: int):
    view = _pair_view(amps, q)
    a0 = view[:, 0, :]
    a1 = view[:, 1, :]
    top = _COS8 * a0 - _SIN8 * a1
    bot = _SIN8 * a0 + _COS8 * a1
    view[:, 0, :] = top
    view[:, 1, :] = bot


def _apply_cnot(amps: np.ndarray, control: int, target: int):
    hi, lo = max(control, target), min(control, target)
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if control == hi:
        sel0 = (slice(None), 1, slice(None), 0, slice(None))
        sel1 = (slice(None), 1, slice(None), 1, slice(None))
    else:
        sel0 = (slice(None), 0, slice(None), 1, slice(None))
        sel1 = (slice(None), 1, slice(None), 1, slice(None))
    tmp = view[sel0].copy()
    view[sel0] = view[sel1]
    view[sel1] = tmp


def _apply_oracle(amps: np.ndarray, signs: np.ndarray, start: int, width: int):
    block = 1 << width
    factor = np.ones(block)
    factor[: signs.shape[0]] = signs
    view = amps.reshape(-1, block, 1 << start)
    view *= factor[None, :, None]


def _bit_probabilities(amps: np.ndarray, q: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-state probabilities (p0, p1) of bit q, each of shape
    ``amps.shape[:-1]``: 0-d for one state, (k,) for a batch.  Each row sums
    the same blocks in the same order as a one-state call.  A total off 1
    raises InvariantError naming the first bad one."""
    view = amps.reshape(*amps.shape[:-1], -1, 2, 1 << q)
    sq = np.square(view)
    p0 = sq[..., 0, :].sum(axis=(-2, -1))
    p1 = sq[..., 1, :].sum(axis=(-2, -1))
    total = np.atleast_1d(p0 + p1)
    bad = np.flatnonzero(np.abs(total - 1.0) > 1e-6)
    if bad.size:
        raise InvariantError("measurement on a denormalized state: total "
                             f"probability {total[bad[0]]}")
    return p0, p1


def _apply_measure(amps: np.ndarray, q: int, rng: np.random.Generator) -> int:
    p0 = float(_bit_probabilities(amps, q)[0])
    bit = 0 if rng.uniform() < p0 else 1
    view = _pair_view(amps, q)
    view[:, 1 - bit, :] = 0.0
    keep = p0 if bit == 0 else 1.0 - p0
    view /= math.sqrt(keep)
    return 1 if bit == 0 else -1


# ---------------------------------------------------------------------------
# Public operations

def apply_gate(state: StateVector, gate: Gate,
               rng: np.random.Generator | None = None) -> int | None:
    """Apply one gate in place; measurement returns its +-1 outcome.

    Unitary gates preserve the norm; measurement collapses and renormalizes
    the state, drawing only from the provided generator.
    """
    if isinstance(gate, Hadamard):
        state._check_qubit(gate.q)
        _apply_h(state.amps, gate.q)
        return None
    if isinstance(gate, RPi8):
        state._check_qubit(gate.q)
        _apply_r(state.amps, gate.q)
        return None
    if isinstance(gate, CNot):
        state._check_qubit(gate.control)
        state._check_qubit(gate.target)
        _apply_cnot(state.amps, gate.control, gate.target)
        return None
    if isinstance(gate, Oracle):
        state._check_qubit(gate.start)
        state._check_qubit(gate.start + gate.width - 1)
        _apply_oracle(state.amps, gate.signs.signs, gate.start, gate.width)
        return None
    if isinstance(gate, Measure):
        state._check_qubit(gate.q)
        if rng is None:
            raise ValueError("measurement requires a random generator")
        if state.amps.ndim != 1:
            raise ValueError("measurement needs one state; one uniform "
                             "cannot collapse a batch")
        return _apply_measure(state.amps, gate.q, rng)
    raise TypeError(f"unknown gate {gate!r}")


def simulate(circuit: Circuit, rng: np.random.Generator | None = None
             ) -> tuple[StateVector, list[int], int]:
    """Run a circuit from the all-zero state and return (final state,
    measurement outcomes in order, operator count)."""
    state = StateVector.zero(circuit.m)
    outcomes = []
    for gate in circuit.gates:
        out = apply_gate(state, gate, rng)
        if out is not None:
            outcomes.append(out)
    return state, outcomes, circuit.size


def not_gates(q: int) -> list:
    """Bit flip on qubit q synthesized from the native set: X = R_pi/8^2 H."""
    return [Hadamard(q), RPi8(q), RPi8(q)]


def _controlled_h_sequence(control: int, target: int) -> list:
    """The five-gate sequence on the target: H, R_pi/8, CNOT, H, R_pi/8."""
    return [Hadamard(target), RPi8(target), CNot(control, target),
            Hadamard(target), RPi8(target)]


def verify_controlled_h_decomposition(tol: float = 1e-10) -> float:
    """Max deviation of the five-gate sequence from diag(I, H) up to global
    phase, reconstructed column by column on two qubits."""
    gates = _controlled_h_sequence(control=1, target=0)
    images = np.eye(4)
    for row in images:  # row c becomes the image of basis state c
        for g in gates:
            apply_gate(StateVector(2, row), g)
    built = images.T
    want = np.eye(4)
    want[2:, 2:] = np.array([[1, 1], [1, -1]]) * _INV_SQRT2
    k = np.unravel_index(np.abs(built).argmax(), built.shape)
    phase = want[k] / built[k]
    deviation = float(np.abs(built * phase - want).max())
    if deviation > tol:
        raise InvariantError(
            "controlled-H gate sequence does not reproduce diag(I, H) up to "
            f"global phase (deviation {deviation:.3e}); refusing to proceed")
    return deviation


# Checked once per process, before the first sequence is handed out.
_verify_controlled_h_once = functools.cache(verify_controlled_h_decomposition)


def controlled_h_gates(control: int, target: int) -> list:
    """Controlled Hadamard as the native five-gate sequence on the target:
    H, R_pi/8, CNOT, H, R_pi/8.  The first call in a process checks the
    sequence and raises ``InvariantError`` if it is wrong."""
    _verify_controlled_h_once()
    return _controlled_h_sequence(control, target)


def e_operator_gates(block_a: Sequence[int], block_b: Sequence[int]) -> list:
    """CNOT cascade from block_a bit j to block_b bit j."""
    a, b = list(block_a), list(block_b)
    if len(a) != len(b):
        raise ValueError(f"blocks must have equal length, got {len(a)} and {len(b)}")
    if set(a) & set(b):
        raise ValueError("blocks must be disjoint")
    return [CNot(ai, bi) for ai, bi in zip(a, b)]


def e_operator(state: StateVector, block_a: Sequence[int],
               block_b: Sequence[int]) -> StateVector:
    """Entangle/erase operator: on basis states |a>|b> -> |a>|b xor a>, so
    |i>|i> and |i>|0> are exchanged.  Self-inverse."""
    for g in e_operator_gates(block_a, block_b):
        apply_gate(state, g)
    return state


def swap_test_probability(state: StateVector, control: int
                          ) -> float | np.ndarray:
    """P[outcome = 1] of the swap test, without consuming the state: a float
    for one state, a (k,) array for a batch of k, each entry bit-identical
    to a one-state call on that row.  The test Hadamards the control and
    measures it, reading the +1 label (bit 0) as outcome 1, which on
    (|0>|phi> + |1>|psi>)/sqrt(2) has probability (1 + <phi|psi>)/2."""
    work = state.copy()
    apply_gate(work, Hadamard(control))
    p0, _ = _bit_probabilities(work.amps, control)
    return float(p0) if p0.ndim == 0 else p0


def swap_test_shots(state: StateVector, control: int, shots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Outcomes of ``shots`` swap tests, each on a fresh copy of the state.

    The pre-measurement evolution is deterministic, so the shots are i.i.d.
    Bernoulli draws at the exact circuit probability; one uniform variate is
    consumed per shot, as a one-shot run would.  A batch of states is
    refused: its probabilities would pair shot t with state t.
    """
    if state.amps.ndim != 1:
        raise ValueError("swap test shots need one state, got a batch of "
                         f"{len(state.amps)}")
    return bernoulli_bits(rng, swap_test_probability(state, control), shots)


def bell_prep_gates(m: int) -> list:
    """Prepare (1/sqrt(2^m)) sum_i |i>|i> from all-zero: Hadamard the first
    m registers, then the entangle cascade onto the second m."""
    gates = [Hadamard(q) for q in range(m)]
    gates += e_operator_gates(range(m), range(m, 2 * m))
    return gates

