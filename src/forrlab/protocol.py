"""The simultaneous-message quantum protocol and the classical-protocol audit.

Quantum side: per copy, the players share log2(2N) Bell pairs; each applies
a sign oracle for their input to their half, and the referee erases one
block, flips the half-select register, Hadamard-transforms the index block
controlled on it, and runs a swap test.  The runner simulates only the
register left after erasure.  Each copy accepts (bit 1) with
probability exactly 1/2 + forr(x . y)/2; the referee answers YES when the
accept fraction over all copies clears a threshold.

Classical side: a cost-c deterministic protocol is represented extensionally
as a partition of the input square into at most 2^c rectangles.  Averaging
the protocol over a uniform first input turns it into a function H of the
sign product z alone, a sum of indicator convolutions over cells, whose
level-2 Fourier mass is the quantity that caps the protocol's power to
distinguish the lifted distribution from uniform; the audit checks the
120 c^2 bound by exact transform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from ._bits import (
    base64_to_bools,
    bools_to_base64,
    f2_inner_sign,
    signs_to_codes,
)
from ._rng import Estimate, chunk_sizes, first_uniforms, mc_mean, substream
from .boolean_fourier import (
    AUDIT_BLOCK,
    FunctionTable,
    SignVector,
    fwht,
    level_mass,
    spectrum,
)
from .errors import PartitionError, ResourceLimitError
from .forrelation_dist import (
    ForrParams,
    Label,
    forrelation_rows,
    uniform_sign_rows,
)
from .quantum_sim import (
    Circuit,
    Hadamard,
    Measure,
    Oracle,
    StateVector,
    apply_gate,
    bell_prep_gates,
    controlled_h_gates,
    e_operator_gates,
    not_gates,
    swap_test_probability,
)

__all__ = [
    "QuantumProtocolConfig",
    "ProtocolRunStats",
    "referee_gates",
    "build_copy_circuit",
    "run_quantum_protocol",
    "default_copies",
    "Cell",
    "RectanglePartition",
    "eval_partition",
    "protocol_H",
    "L2Audit",
    "l2_audit",
    "advantage",
    "majority_amplify",
    "random_protocol_partition",
    "trivial_partition",
    "forrelation_probe_partition",
]

DENSE_CAP = 16  # max input length (2N) for dense point-set cells
MIN_ADVANTAGE_SAMPLES = 10_000
PREDICATE_CHECK_PAIRS = 4096  # input pairs drawn to validate predicate cells


# ---------------------------------------------------------------------------
# Quantum protocol

@dataclass(frozen=True)
class QuantumProtocolConfig:
    """Copies, decision threshold, and seed for one protocol run.

    ``threshold`` defaults to 1/2 + (3/32) eps, the promise-regime cut;
    amplified-gap experiments pass their own.
    """

    params: ForrParams
    copies: int
    threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError(f"copies must be positive, got {self.copies}")

    @property
    def decision_threshold(self) -> float:
        if self.threshold is not None:
            return self.threshold
        return 0.5 + (3.0 / 32.0) * self.params.eps


@dataclass(frozen=True, eq=False)
class ProtocolRunStats:
    """Outcome and cost accounting of one protocol run."""

    ones_fraction: float
    per_copy_bits: np.ndarray
    decision: Label
    qubits_sent: int
    oracle_calls: int
    gate_count: int


def referee_gates(half: int) -> list:
    """The referee's gates between erasure and the swap test, on Alice's
    ``half`` = log2(2N) qubits: flip the half-select register (the top
    qubit), then Hadamard each index qubit controlled on it."""
    select = half - 1
    gates = not_gates(select)
    for target in range(half - 1):
        gates += controlled_h_gates(select, target)
    return gates


def build_copy_circuit(x: SignVector, y: SignVector) -> Circuit:
    """The single-copy circuit: Bell-pair preparation, both players'
    oracles, the erase cascade, the referee's gates and the swap-test
    Hadamard.  Ends with the swap-test measurement."""
    if x.n != y.n:
        raise ValueError(f"input lengths differ: {x.n} vs {y.n}")
    half = x.n.bit_length() - 1  # log2(2N)
    if (1 << half) != x.n:
        raise ValueError(f"input length must be a power of two, got {x.n}")
    alice = range(0, half)
    bob = range(half, 2 * half)
    select = half - 1  # top bit of Alice's block distinguishes the halves

    gates = bell_prep_gates(half)
    gates += [Oracle(x, start=0), Oracle(y, start=half)]
    gates += e_operator_gates(alice, bob)
    gates += referee_gates(half)
    gates += [Hadamard(select), Measure(select)]
    return Circuit(2 * half, gates)


def run_quantum_protocol(x: SignVector | np.ndarray, y: SignVector | np.ndarray,
                         cfg: QuantumProtocolConfig) -> ProtocolRunStats:
    """Run the protocol on one instance.

    Only Alice's log2(2N)-qubit register is simulated.  After the Bell
    pairs, both oracles and the erase cascade, the full 2 log2(2N)-qubit
    state is exactly sum_i x_i y_i / sqrt(2N) |i>|0>: the erase CNOTs map
    Bob's copy of each index to 0, so his block is |0> and the referee's
    gates, which act on Alice's qubits alone, see the 2N amplitudes
    x_i y_i / sqrt(2N).  The circuit up to the swap-test measurement is
    deterministic, so the accept probability is computed once; copy t then
    accepts when the first uniform of substream (seed, t) falls below it,
    exactly as a fresh simulation of that copy would.  The draws are
    vectorized in blocks of ``CHUNK`` copies, which keeps memory near one
    byte per copy.  Bits are i.i.d. with
    P[1] = 1/2 + forr(x . y)/2.  Cost accounting is taken from the full
    single-copy circuit.
    """
    x = x if isinstance(x, SignVector) else SignVector(x)
    y = y if isinstance(y, SignVector) else SignVector(y)
    if x.n != cfg.params.input_length:
        raise ValueError(
            f"inputs have length {x.n}, config expects {cfg.params.input_length}")
    circuit = build_copy_circuit(x, y)
    half = cfg.params.n + 1  # log2(2N)

    state = StateVector(half, x.signs * y.signs / math.sqrt(x.n))
    for gate in referee_gates(half):
        apply_gate(state, gate)
    p_one = swap_test_probability(state, half - 1)
    bits = np.empty(cfg.copies, dtype=np.uint8)
    start = 0
    for k in chunk_sizes(cfg.copies):
        bits[start:start + k] = first_uniforms(cfg.seed, k, start) < p_one
        start += k

    ones_fraction = float(bits.mean())
    decision = Label.YES if ones_fraction > cfg.decision_threshold else Label.NO
    return ProtocolRunStats(
        ones_fraction=ones_fraction,
        per_copy_bits=bits,
        decision=decision,
        qubits_sent=cfg.copies * circuit.m,
        oracle_calls=cfg.copies * 2,
        gate_count=cfg.copies * circuit.size,
    )


def default_copies(params: ForrParams, target_error: float) -> int:
    """Smallest copy count T with 2 exp(-2 T (eps/32)^2) <= target_error,
    the additive-Chernoff count for resolving the eps/8 vs eps/16 gap with a
    deviation budget of eps/32.  Large at desk scale; amplified-gap runs use
    far fewer copies."""
    if not 0 < target_error < 0.5:
        raise ValueError(f"target error must lie in (0, 1/2), got {target_error}")
    rate = 2.0 * (params.eps / 32.0) ** 2

    def bound(t: int) -> float:
        return 2.0 * math.exp(-rate * t)

    t = max(1, math.ceil(math.log(2.0 / target_error) / rate))
    while t > 1 and bound(t - 1) <= target_error:
        t -= 1
    while bound(t) > target_error:
        t += 1
    return t


def majority_amplify(base_error: float, reps: int) -> float:
    """Exact error bound after independent repetition and majority vote:
    P[Binomial(reps, base_error) >= ceil(reps/2)]."""
    if not 0 <= base_error < 0.5:
        raise ValueError(f"base error must lie in [0, 1/2), got {base_error}")
    if reps < 1 or reps % 2 == 0:
        raise ValueError(f"reps must be odd and positive, got {reps}")
    need = (reps + 1) // 2
    q = 1.0 - base_error
    return math.fsum(math.comb(reps, k) * base_error ** k * q ** (reps - k)
                     for k in range(need, reps + 1))


# ---------------------------------------------------------------------------
# Rectangle partitions

PointSet = Union[np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class Cell:
    """One rectangle A x B with a fixed +-1 output.

    ``alice`` / ``bob`` are boolean membership masks over point codes in the
    dense regime, or vectorized predicates (sign rows (k, n) -> bool (k,))
    above it.
    """

    alice: PointSet
    bob: PointSet
    output: int

    def __post_init__(self):
        if self.output not in (-1, 1):
            raise ValueError(f"cell output must be +-1, got {self.output}")


class RectanglePartition:
    """A deterministic protocol of cost c as a partition of the input
    square into at most 2^c rectangles."""

    def __init__(self, n: int, cost: int, cells: Sequence[Cell]):
        if n < 1:
            raise ValueError(f"input length must be positive, got {n}")
        if cost < 0:
            raise ValueError(f"cost must be nonnegative, got {cost}")
        if len(cells) > (1 << cost):
            raise PartitionError(
                f"{len(cells)} cells exceed 2^cost = {1 << cost}")
        self.n = n
        self.cost = cost
        self.cells = list(cells)
        self.dense = all(isinstance(c.alice, np.ndarray) and
                         isinstance(c.bob, np.ndarray) for c in self.cells)
        if self.dense:
            for cell in self.cells:
                for mask in (cell.alice, cell.bob):
                    if mask.dtype != np.bool_ or mask.shape != (1 << n,):
                        raise ValueError(
                            "dense cells need boolean masks of length 2^n")
            self._validate_dense()
        else:
            # Predicate cells are checked on a fixed sample of input pairs;
            # evaluate_rows raises unless each is covered exactly once.
            gen = substream(0, 0)
            self.evaluate_rows(
                uniform_sign_rows(gen, (PREDICATE_CHECK_PAIRS, n)),
                uniform_sign_rows(gen, (PREDICATE_CHECK_PAIRS, n)))

    def _validate_dense(self):
        # Pairwise-disjoint rectangles plus full total measure is exactly
        # the partition property; both are cheap even at n = 16.
        total = 0
        for i, ci in enumerate(self.cells):
            total += int(ci.alice.sum()) * int(ci.bob.sum())
            for cj in self.cells[i + 1:]:
                if (ci.alice & cj.alice).any() and (ci.bob & cj.bob).any():
                    raise PartitionError("cells overlap on the input square")
        if total != 1 << (2 * self.n):
            raise PartitionError(
                f"cells cover {total} of {1 << (2 * self.n)} input pairs")

    def _member(self, side: PointSet, rows: np.ndarray) -> np.ndarray:
        if isinstance(side, np.ndarray):
            return side[signs_to_codes(rows)]
        out = np.asarray(side(rows), dtype=bool)
        if out.shape != (rows.shape[0],):
            raise ValueError("cell predicate must return one bool per row")
        return out

    def evaluate_rows(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Outputs for batched sign rows, checking unique coverage."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.int8))
        ys = np.atleast_2d(np.asarray(ys, dtype=np.int8))
        if xs.shape != ys.shape or xs.shape[1] != self.n:
            raise ValueError("input rows must both have shape (k, n)")
        counts = np.zeros(xs.shape[0], dtype=np.int64)
        out = np.zeros(xs.shape[0], dtype=np.int64)
        for cell in self.cells:
            hit = self._member(cell.alice, xs) & self._member(cell.bob, ys)
            counts += hit
            out += np.where(hit, cell.output, 0)
        if not np.all(counts == 1):
            bad = int(counts[counts != 1][0])
            raise PartitionError(
                f"an input pair is covered by {bad} cells instead of 1")
        return out.astype(np.int8)

    def to_json(self) -> str:
        if not self.dense:
            raise ValueError("only dense partitions serialize to JSON")
        return json.dumps({
            "n": self.n,
            "cost": self.cost,
            "cells": [{"A": bools_to_base64(c.alice),
                       "B": bools_to_base64(c.bob),
                       "out": c.output} for c in self.cells],
        })

    @classmethod
    def from_json(cls, text: str) -> "RectanglePartition":
        obj = json.loads(text)
        size = 1 << obj["n"]
        cells = [Cell(base64_to_bools(c["A"], size),
                      base64_to_bools(c["B"], size),
                      c["out"]) for c in obj["cells"]]
        return cls(obj["n"], obj["cost"], cells)


def trivial_partition(n: int, output: int = 1) -> RectanglePartition:
    """The cost-0 protocol that always answers ``output``."""
    if n <= DENSE_CAP:
        full = np.ones(1 << n, dtype=bool)
        return RectanglePartition(n, 0, [Cell(full, full, output)])
    everything = lambda rows: np.ones(rows.shape[0], dtype=bool)
    return RectanglePartition(n, 0, [Cell(everything, everything, output)])


def eval_partition(p: RectanglePartition, x, y) -> int:
    """Protocol output on one input pair (must lie in exactly one cell)."""
    xs = x.signs if isinstance(x, SignVector) else np.asarray(x, dtype=np.int8)
    ys = y.signs if isinstance(y, SignVector) else np.asarray(y, dtype=np.int8)
    return int(p.evaluate_rows(xs[None, :], ys[None, :])[0])


def protocol_H(p: RectanglePartition) -> FunctionTable:
    """The averaged protocol H(z) = E_x[ C(x, x . z) ] as a dense table,
    built exactly as sum of output-weighted indicator convolutions.  The
    cells' convolutions are computed in blocks of at most AUDIT_BLOCK, one
    transform for the stacked Alice and Bob indicators and one inverse."""
    if not p.dense or p.n > DENSE_CAP:
        raise ResourceLimitError(
            f"dense protocol table needs dense cells and n <= {DENSE_CAP}")
    size = 1 << p.n
    acc = np.zeros(size)
    for start in range(0, len(p.cells), AUDIT_BLOCK):
        cells = p.cells[start:start + AUDIT_BLOCK]
        alice, bob = fwht(np.array([[c.alice for c in cells],
                                    [c.bob for c in cells]], dtype=np.float64))
        lifted = fwht(alice * bob) / (size * size)
        for cell, row in zip(cells, lifted):
            acc += cell.output * row
    return FunctionTable(p.n, acc)


class L2Audit(NamedTuple):
    l2_mass: float
    bound: float
    passed: bool
    effective_cost: int


def l2_audit(p: RectanglePartition) -> L2Audit:
    """Exact level-2 Fourier mass of the averaged protocol against the
    120 c^2 bound.

    Cells with a side heavier than 1/e are split by fixing two extra input
    bits per side before auditing, mirroring the bound's preconditioning;
    the split refines cells without changing H (indicators add up), so the
    mass is unchanged and the refinement shows up only in the reported
    effective cost c + 4.
    """
    mass = level_mass(spectrum(protocol_H(p)), 2)
    heavy = any(cell.alice.mean() > 1.0 / math.e or
                cell.bob.mean() > 1.0 / math.e for cell in p.cells)
    effective = p.cost + 4 if heavy else p.cost
    bound = 120.0 * p.cost ** 2
    return L2Audit(mass, bound, mass <= bound, effective)


def advantage(p: RectanglePartition, params: ForrParams, samples: int,
              seed: int) -> Estimate:
    """Monte Carlo estimate of E_lifted[C] - E_uniform[C].

    Paired with common random numbers: each sample shares the mask x across
    the lifted and uniform terms, so the trivial protocol gives exactly 0.
    """
    if samples < MIN_ADVANTAGE_SAMPLES:
        raise ValueError(
            f"advantage estimation needs at least {MIN_ADVANTAGE_SAMPLES} "
            f"samples, got {samples}")
    if p.n != params.input_length:
        raise ValueError(
            f"partition is over length {p.n}, params give {params.input_length}")

    def draw(gen, k):
        z_lift = forrelation_rows(gen, params, k)
        x = uniform_sign_rows(gen, (k, p.n))
        y_unif = uniform_sign_rows(gen, (k, p.n))
        return (p.evaluate_rows(x, x * z_lift).astype(np.float64) -
                p.evaluate_rows(x, y_unif).astype(np.float64))
    return mc_mean(draw, samples, seed)


def random_protocol_partition(n: int, cost: int, seed: int) -> RectanglePartition:
    """Partition induced by a random communication tree of depth ``cost``:
    at each node a random speaker announces a random bipartition of their
    compatible set; leaves answer a random sign."""
    if n > DENSE_CAP:
        raise ResourceLimitError(f"random dense partitions need n <= {DENSE_CAP}")
    gen = substream(seed, 0)
    points = 1 << n
    cells: list[Cell] = []

    def grow(amask: np.ndarray, bmask: np.ndarray, depth: int):
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
    return RectanglePartition(n, cost, cells)


def forrelation_probe_partition(params: ForrParams, i: int = 0,
                                j: int = 0) -> RectanglePartition:
    """Cost-2 protocol probing one forrelation monomial: the players
    exchange the signs x_1(i) x_2(j) and y_1(i) y_2(j) and answer their
    product times (-1)^{<i,j>}, aligning with the lifted distribution's
    pair correlation eps (-1)^{<i,j>} / sqrt(N)."""
    if not (0 <= i < params.N and 0 <= j < params.N):
        raise ValueError(f"probe coordinates must lie in [0, {params.N})")
    n = params.input_length
    w = int(f2_inner_sign(np.uint64(i), np.uint64(j)))
    second = params.N + j

    def side(sign: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda rows: rows[:, i] * rows[:, second] == sign

    cells = [Cell(side(s), side(t), w * s * t)
             for s in (1, -1) for t in (1, -1)]
    return RectanglePartition(n, 2, cells)
