"""The simultaneous-message quantum protocol and the classical-protocol audit.

Quantum side: per copy, the players share log2(2N) Bell pairs; each applies
a sign oracle for their input to their half, and the referee erases one
block, flips the half-select register, Hadamard-transforms the index block
controlled on it, and runs a swap test.  The runner simulates only the
register left after erasure.  Each copy accepts (bit 1) with
probability exactly 1/2 + forr(x . y)/2; the referee answers YES when the
accept fraction over all copies clears a threshold.

Classical side: a cost-c deterministic protocol is represented extensionally
as a partition of the input square into at most 2^c rectangles, each side a
boolean mask over the points of a coordinate window R, the at most DENSE_CAP
coordinates the protocol reads.  Averaging the protocol over a uniform
first input turns it into a function H of the sign product z alone, indeed
of z_R, a sum of indicator convolutions over cells, whose level-2 Fourier
mass is the quantity that caps the protocol's power to distinguish the
lifted distribution from uniform; the audit checks the 120 c^2 bound by
exact transform over the window, at any input length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import quantum_sim
from ._bits import codes_to_signs, f2_inner_sign, signs_to_codes
from ._rng import Estimate, chunk_sizes, mc_mean, substream
from .boolean_fourier import (
    AUDIT_BLOCK,
    FourierSpectrum,
    FunctionTable,
    SignVector,
    fwht,
    inverse_spectrum,
    level_transform,
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
    "protocol_spectrum",
    "protocol_H",
    "L2Audit",
    "l2_audit",
    "advantage",
    "majority_amplify",
    "random_protocol_partition",
    "pair_parity_partition",
    "pair_parity_mass",
    "trivial_partition",
    "forrelation_probe_partition",
]

DENSE_CAP = 16  # max window size |R|, and max n for full 2^n protocol tables
TREE_WORDS = 1 << 10  # fewest uint32 words per read of a random tree's stream
# Bytes of float64 cell tables per stacked audit transform, and of boolean
# cell masks per block of fourier-audit partitions: small enough that
# blocking never raises a run's peak memory.
AUDIT_BYTES = 1 << 16


# ---------------------------------------------------------------------------
# Quantum protocol

@dataclass(frozen=True)
class QuantumProtocolConfig:
    """Copies, decision threshold, and seed for one protocol run.

    ``threshold`` defaults to 1/2 + (3/32) eps, the promise-regime cut;
    amplified-gap experiments pass their own.  A run keeps one uint8 bit
    per copy, so more copies than ``MAX_STATE_BYTES`` raise
    ``ResourceLimitError``.
    """

    params: ForrParams
    copies: int
    threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError(f"copies must be positive, got {self.copies}")
        if self.copies > quantum_sim.MAX_STATE_BYTES:
            raise ResourceLimitError(
                f"{self.copies} copies need {self.copies} bytes of copy "
                f"bits, over {quantum_sim.MAX_STATE_BYTES}")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be a finite number in [0, 1], got {self.threshold}")

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


def _sign_rows(v: SignVector | np.ndarray) -> np.ndarray:
    """A SignVector, a sign row or a (k, 2N) stack of them as int8 rows."""
    if isinstance(v, SignVector):
        return v.signs[None, :]
    rows = np.asarray(v, dtype=np.int8)
    rows = rows[None, :] if rows.ndim == 1 else rows
    if rows.ndim != 2 or not np.all(np.abs(rows) == 1):
        raise ValueError("inputs must be +-1 rows of shape (2N,) or (k, 2N)")
    return rows


def run_quantum_protocol(x: SignVector | np.ndarray, y: SignVector | np.ndarray,
                         cfg: QuantumProtocolConfig | Sequence[QuantumProtocolConfig]
                         ) -> ProtocolRunStats | list[ProtocolRunStats]:
    """Run the protocol on one instance, or on a block of k instances.

    One pair (SignVectors or length-2N rows) with one config returns one
    ``ProtocolRunStats``; (k, 2N) stacks with a sequence of k configs, all
    with the same ``params``, return k stats in order.  One pair is a block
    of one.

    Only Alice's log2(2N)-qubit register is simulated.  After the Bell
    pairs, both oracles and the erase cascade, the full 2 log2(2N)-qubit
    state is exactly sum_i x_i y_i / sqrt(2N) |i>|0>: the erase CNOTs map
    Bob's copy of each index to 0, so his block is |0> and the referee's
    gates, which act on Alice's qubits alone, see the 2N amplitudes
    x_i y_i / sqrt(2N).  The block's k such registers form one batched
    state that a single pass of ``referee_gates`` transforms; every kernel
    acts on each row as it would on that row alone, so each instance's
    accept probability has the bits of a one-instance run.  The circuit up
    to the swap-test measurement is deterministic, so the accept
    probability is computed once; copy t of an instance then accepts when
    uniform t of substream (its seed, 0) falls below it, exactly as
    simulating the copies in order on that stream would.  The uniforms are
    drawn in blocks of ``CHUNK`` copies, so memory stays near one byte per
    copy and a shorter run's bits are a prefix of a longer run's.  Bits are
    i.i.d. with P[1] = 1/2 + forr(x . y)/2.  Cost accounting is taken from
    the full single-copy circuit, which depends only on N.
    """
    single = isinstance(cfg, QuantumProtocolConfig)
    cfgs = [cfg] if single else list(cfg)
    xs, ys = _sign_rows(x), _sign_rows(y)
    if xs.shape != ys.shape:
        raise ValueError(f"input shapes differ: {xs.shape} vs {ys.shape}")
    if len(cfgs) != xs.shape[0] or not cfgs:
        raise ValueError(f"{xs.shape[0]} instances need as many configs, "
                         f"got {len(cfgs)}")
    params = cfgs[0].params
    if any(c.params != params for c in cfgs):
        raise ValueError("every config in a block must have the same params")
    if xs.shape[1] != params.input_length:
        raise ValueError(f"inputs have length {xs.shape[1]}, config expects "
                         f"{params.input_length}")
    circuit = build_copy_circuit(SignVector(xs[0]), SignVector(ys[0]))
    half = params.n + 1  # log2(2N)

    state = StateVector(half, xs * ys / math.sqrt(params.input_length))
    for gate in referee_gates(half):
        apply_gate(state, gate)
    p_ones = swap_test_probability(state, half - 1)

    out = []
    for c, p_one in zip(cfgs, p_ones):
        gen = substream(c.seed, 0)
        bits = np.empty(c.copies, dtype=np.uint8)
        start = 0
        for k in chunk_sizes(c.copies):
            bits[start:start + k] = gen.uniform(size=k) < p_one
            start += k
        ones_fraction = float(bits.mean())
        decision = Label.YES if ones_fraction > c.decision_threshold else Label.NO
        out.append(ProtocolRunStats(
            ones_fraction=ones_fraction,
            per_copy_bits=bits,
            decision=decision,
            qubits_sent=c.copies * circuit.m,
            oracle_calls=c.copies * 2,
            gate_count=c.copies * circuit.size,
        ))
    return out[0] if single else out


def default_copies(params: ForrParams, target_error: float) -> int:
    """Smallest copy count T with 2 exp(-2 T (eps/32)^2) <= target_error,
    the additive-Chernoff count for resolving the eps/8 vs eps/16 gap with a
    deviation budget of eps/32.  Large at desk scale; amplified-gap runs use
    far fewer copies.  An eps so small that the count overflows a float
    raises ``ResourceLimitError``."""
    if not 0 < target_error < 0.5:
        raise ValueError(f"target error must lie in (0, 1/2), got {target_error}")
    rate = 2.0 * (params.eps / 32.0) ** 2
    need = math.log(2.0 / target_error) / rate if rate else math.inf
    if need == math.inf:
        raise ResourceLimitError(
            f"eps = {params.eps!r} needs a copy count beyond float range")

    def bound(t: int) -> float:
        return 2.0 * math.exp(-rate * t)

    # bound is nonincreasing and bound(0) = 2 > target_error, so bisecting
    # between lo and hi with bound(lo) > target_error >= bound(hi) finds T
    # in O(log T) steps, also where the float rate * T cannot tell
    # neighbouring counts apart (a walk of one count per step would not end).
    lo, hi, step = 0, max(1, math.ceil(need)), 1
    while bound(hi) > target_error:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= target_error:
            hi = mid
        else:
            lo = mid
    return hi


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

@dataclass(frozen=True)
class Cell:
    """One rectangle A x B with a fixed +-1 output.

    ``alice`` / ``bob`` are boolean membership masks over the 2^|R| points
    of the partition's coordinate window R: entry c is the membership of
    every input whose window coordinates have point code c, with bit b of c
    encoding coordinate R[b].
    """

    alice: np.ndarray
    bob: np.ndarray
    output: int

    def __post_init__(self):
        if self.output not in (-1, 1):
            raise ValueError(f"cell output must be +-1, got {self.output}")


class RectanglePartition:
    """A deterministic protocol of cost c as a partition of the input
    square into at most 2^c rectangles.

    Every cell reads only the coordinates in ``window``, a sorted list R of
    at most DENSE_CAP distinct coordinates in [0, n), all n by default, so
    the protocol is a partition of the 2^|R| x 2^|R| window square and is
    validated exactly on it.
    """

    def __init__(self, n: int, cost: int, cells: Sequence[Cell],
                 window: Sequence[int] | None = None):
        if n < 1:
            raise ValueError(f"input length must be positive, got {n}")
        if cost < 0:
            raise ValueError(f"cost must be nonnegative, got {cost}")
        if len(cells) > (1 << cost):
            raise PartitionError(
                f"{len(cells)} cells exceed 2^cost = {1 << cost}")
        window = np.asarray(range(n) if window is None else window,
                            dtype=np.intp)
        if (window.ndim != 1 or np.any(window[1:] <= window[:-1]) or
                (window.size and not 0 <= window[0] <= window[-1] < n)):
            raise ValueError(
                f"window must be sorted distinct coordinates in [0, {n})")
        if window.size > DENSE_CAP:
            raise ResourceLimitError(
                f"a window of {window.size} coordinates exceeds the mask cap "
                f"{DENSE_CAP}")
        self.n = n
        self.cost = cost
        self.cells = list(cells)
        self.window = window
        for cell in self.cells:
            for mask in (cell.alice, cell.bob):
                if mask.dtype != np.bool_ or mask.shape != (1 << window.size,):
                    raise ValueError(
                        "cells need boolean masks of length 2^|window|")
        self._validate()

    def _validate(self):
        # Pairwise-disjoint rectangles plus full total measure is exactly
        # the partition property.  Two cells overlap when both their Alice
        # sides and their Bob sides meet, which an AND of the bit-packed
        # masks tests for AUDIT_BLOCK cells against all at a time: exact,
        # and in one thread.  The zero pad bits of packing never meet.
        shape = (len(self.cells), 1 << self.window.size)
        alice = np.array([c.alice for c in self.cells],
                         dtype=bool).reshape(shape)
        bob = np.array([c.bob for c in self.cells], dtype=bool).reshape(shape)
        alice_bits = np.packbits(alice, axis=1)
        bob_bits = np.packbits(bob, axis=1)
        for start in range(0, len(self.cells), AUDIT_BLOCK):
            rows = slice(start, start + AUDIT_BLOCK)
            overlap = ((alice_bits[rows, None] & alice_bits).any(axis=2) &
                       (bob_bits[rows, None] & bob_bits).any(axis=2))
            block = np.arange(overlap.shape[0])
            overlap[block, start + block] = False
            if overlap.any():
                raise PartitionError("cells overlap on the input square")
        total = int(np.count_nonzero(alice, axis=1) @
                    np.count_nonzero(bob, axis=1))
        pairs = 1 << (2 * self.window.size)
        if total != pairs:
            raise PartitionError(f"cells cover {total} of {pairs} input pairs")

    def evaluate_rows(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Outputs for batched sign rows."""
        xs = np.atleast_2d(np.asarray(xs, dtype=np.int8))
        ys = np.atleast_2d(np.asarray(ys, dtype=np.int8))
        if xs.shape != ys.shape or xs.shape[1] != self.n:
            raise ValueError("input rows must both have shape (k, n)")
        x_codes = signs_to_codes(xs[:, self.window])
        y_codes = signs_to_codes(ys[:, self.window])
        out = np.zeros(xs.shape[0], dtype=np.int8)
        for cell in self.cells:
            out[cell.alice[x_codes] & cell.bob[y_codes]] = cell.output
        return out


def trivial_partition(n: int, output: int = 1) -> RectanglePartition:
    """The cost-0 protocol that always answers ``output``; it reads no
    coordinate, so its one cell has one-point sides."""
    full = np.ones(1, dtype=bool)
    return RectanglePartition(n, 0, [Cell(full, full, output)], window=())


def _audit_rows(k: int) -> int:
    """Cells per stacked transform at window size k: as many as fit in
    ``AUDIT_BYTES`` of float64 Alice and Bob tables, and at least
    AUDIT_BLOCK, which bounds memory at a window of DENSE_CAP coordinates."""
    return max(AUDIT_BLOCK, AUDIT_BYTES // (16 << k))


def _cell_sums(ps: Sequence[RectanglePartition],
               transform) -> tuple[np.ndarray, np.ndarray]:
    """For the partitions ``ps``, which share a window size, one row each of
    the sum over the partition's cells of out_c T(A_c) T(B_c), with T the
    unnormalized ``transform`` over the window of the cell's Alice and Bob
    indicators, and one entry each of the largest density of any of the
    partition's cell sides.

    The cells of all the partitions are stacked and transformed
    ``_audit_rows`` at a time, and each chunk's terms are summed per
    partition.  Every term is an integer below 2^53, so every sum is exact
    in any order, and a partition's sums do not depend on its chunks."""
    k = ps[0].window.size
    cells = [c for p in ps for c in p.cells]
    owner = np.repeat(np.arange(len(ps)), [len(p.cells) for p in ps])
    sums = densest = None
    step = _audit_rows(k)
    for start in range(0, len(cells), step):
        chunk = cells[start:start + step]
        tables = np.array([[c.alice for c in chunk], [c.bob for c in chunk]],
                          dtype=np.float64)
        # The chunk row where each partition's cells begin, row 0 included;
        # every partition has a cell, so no reduceat segment is empty.
        heads = np.flatnonzero(np.diff(owner[start:start + step], prepend=-1))
        ids = owner[start + heads]
        dense = np.maximum.reduceat(tables.mean(axis=-1).max(axis=0), heads)
        alice, bob = transform(tables)
        alice *= np.array([[c.output] for c in chunk], dtype=np.float64)
        alice *= bob
        terms = np.add.reduceat(alice, heads)
        if sums is None:
            sums = np.zeros((len(ps), terms.shape[1]))
            densest = np.zeros(len(ps))
        sums[ids] += terms
        densest[ids] = np.maximum(densest[ids], dense)
    return sums, densest


def protocol_spectrum(p: RectanglePartition) -> FourierSpectrum:
    """Spectrum of the averaged protocol H(z) = E_x[ C(x, x . z) ], built
    straight from the cells.  H depends on z_R alone, so its coefficient at
    S inside the window R is sum_c out_c A_c(S) B_c(S) / 4^|R|, with A_c and
    B_c the unnormalized window transforms of the cell's indicators, and 0
    at every other S.  The sum is exact until the final division by a power
    of two, so the coefficients are exact.  The table has 2^n entries, so n
    is capped at DENSE_CAP."""
    if p.n > DENSE_CAP:
        raise ResourceLimitError(
            f"dense protocol table needs n <= {DENSE_CAP}, got {p.n}")
    k = p.window.size
    # Window subset code c scatters to the n-bit mask of {R[b] : bit b of c}.
    rows = np.ones((1 << k, p.n), dtype=np.int8)
    rows[:, p.window] = codes_to_signs(np.arange(1 << k), k)
    sums, _ = _cell_sums([p], fwht)
    coeffs = np.zeros(1 << p.n)
    coeffs[signs_to_codes(rows)] = sums[0] / (1 << (2 * k))
    return FourierSpectrum(p.n, coeffs)


def protocol_H(p: RectanglePartition) -> FunctionTable:
    """The averaged protocol H(z) = E_x[ C(x, x . z) ] as a dense table,
    the inverse transform of :func:`protocol_spectrum`."""
    return inverse_spectrum(protocol_spectrum(p))


class L2Audit(NamedTuple):
    l2_mass: float
    bound: float
    passed: bool
    effective_cost: int


def _level2(tables: np.ndarray) -> np.ndarray:
    """Level-2 columns of the window transform; none below two coordinates."""
    if tables.shape[-1] < 4:
        return tables[..., :0]
    return level_transform(tables, 2)


def l2_audit(p: RectanglePartition | Sequence[RectanglePartition]
             ) -> L2Audit | list[L2Audit]:
    """Exact level-2 Fourier mass of the averaged protocol against the
    120 c^2 bound, at any input length, for one partition or for a block.

    One partition returns one ``L2Audit``; a sequence returns one per
    partition, in order.  A block's partitions are grouped by window size,
    and each group's cells are transformed together, so a block costs one
    stacked level-2 product per ``_audit_rows`` cells rather than one per
    partition.  Every partial sum is an integer, and every mass a sum of
    multiples of 4^-|R| with far fewer than 53 significant bits, so any
    summation order is exact and each audit has the bits of a block of one.

    Cells with a side heavier than 1/e are split by fixing two extra input
    bits per side before auditing, mirroring the bound's preconditioning;
    the split refines cells without changing H (indicators add up), so the
    mass is unchanged and the refinement shows up only in the reported
    effective cost c + 4.

    H depends on the window coordinates alone, so its level-2 coefficients
    are those of pairs inside the window: only they are computed, through
    the exact :func:`level_transform` of the 0/1 window indicators, so the
    mass equals ``level_mass(protocol_spectrum(p), 2)`` bit for bit.  A
    window of fewer than two coordinates has no pairs and mass 0.
    """
    single = isinstance(p, RectanglePartition)
    ps = [p] if single else list(p)
    groups: dict[int, list[int]] = {}
    for i, q in enumerate(ps):
        groups.setdefault(q.window.size, []).append(i)
    out: list[L2Audit | None] = [None] * len(ps)
    for k, ids in groups.items():
        sums, densest = _cell_sums([ps[i] for i in ids], _level2)
        masses = np.abs(sums / (1 << (2 * k))).sum(axis=1)
        for i, mass, dense in zip(ids, masses.tolist(), densest.tolist()):
            cost = ps[i].cost
            bound = 120.0 * cost ** 2
            effective = cost + 4 if dense > 1.0 / math.e else cost
            out[i] = L2Audit(mass, bound, mass <= bound, effective)
    return out[0] if single else out


def advantage(p: RectanglePartition, params: ForrParams, samples: int,
              seed: int) -> Estimate:
    """Monte Carlo estimate of E_lifted[C] - E_uniform[C].

    Paired with common random numbers: each sample shares the mask x across
    the lifted and uniform terms, so the trivial protocol gives exactly 0.
    """
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
    compatible set; leaves answer a random sign.  The tree is drawn from
    substream (seed, 0) as :func:`_random_tree_cells` describes."""
    if cost < 0:
        raise ValueError(f"cost must be nonnegative, got {cost}")
    if n > DENSE_CAP:
        raise ResourceLimitError(f"random dense partitions need n <= {DENSE_CAP}")
    return RectanglePartition(n, cost, _random_tree_cells(n, cost, seed))


def _random_tree_cells(n: int, cost: int, seed: int) -> list[Cell]:
    """The leaves of a random depth-``cost`` tree over 2^n points per side,
    in depth-first order: at each split, the part of the speaker's set
    inside the message before the part outside it.

    The tree reads substream (seed, 0) one uint32 word at a time in stream
    order: a node's message takes ceil(2^n / 4) words whose bytes' top bits
    are its 2^n bits, then one word whose top bit picks the speaker (0 is
    Alice); a leaf takes one word whose top bit picks the sign (0 is +1).
    Those are the words and bits that per-node ``integers(0, 2, size=2^n,
    dtype=uint8)`` and ``integers(2)`` draws and per-leaf ``integers(2)``
    draws consume, but the words are read in refills of at least
    ``TREE_WORDS``, so the stream is touched once per refill rather than up
    to three times per node.  A part of a split that is empty is pruned.
    """
    gen = substream(seed, 0)
    points = 1 << n
    msg_words = -(-points // 4)
    words = np.empty(0, dtype="<u4")
    pos = 0
    cells: list[Cell] = []
    full = np.ones(points, dtype=bool)
    stack = [(full, full, 0)]  # pending subtrees, the next one on top
    while stack:
        amask, bmask, depth = stack.pop()
        need = 1 if depth == cost else msg_words + 1
        if pos + need > words.size:
            fresh = gen.integers(0, 1 << 32, dtype=np.uint32,
                                 size=max(need, TREE_WORDS))
            words = np.concatenate([words[pos:], fresh]).astype("<u4",
                                                               copy=False)
            bits = words.view(np.uint8) >= 128
            pos = 0
        if depth == cost:
            cells.append(Cell(amask, bmask, 1 - 2 * int(words[pos] >> 31)))
            pos += 1
            continue
        msg = bits[4 * pos:4 * pos + points]
        alice_speaks = words[pos + msg_words] >> 31 == 0
        pos += need
        side = amask if alice_speaks else bmask
        for part in (side & ~msg, side & msg):  # side & msg pops first
            if np.count_nonzero(part):
                stack.append((part, bmask, depth + 1) if alice_speaks
                             else (amask, part, depth + 1))
    return cells


def pair_parity_partition(n: int, m: int) -> RectanglePartition:
    """Cost-2m adversary of known level-2 mass: for each of the m disjoint
    coordinate pairs (2i, 2i + 1), Alice sends x_2i x_2i+1 and Bob sends
    y_2i y_2i+1, and the leaf answers the majority of the m products
    (m odd).  The averaged protocol is H(z) = Maj_m(z_0 z_1, z_2 z_3, ...),
    whose level-2 mass is the level-1 mass of Maj_m,
    m C(m - 1, (m - 1) / 2) / 2^(m - 1).  The masks cover only the window
    of the 2m coordinates read, so any input length n >= 2m works."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"pair count must be odd and positive, got {m}")
    if 2 * m > n:
        raise ValueError(f"{m} disjoint pairs need input length >= {2 * m}, "
                         f"got {n}")
    if 2 * m > DENSE_CAP:
        raise ResourceLimitError(
            f"pair-parity partitions need 2m <= {DENSE_CAP}, got {2 * m}")
    codes = np.arange(1 << (2 * m))
    # Bit i of pair_bits is 1 where pair i's product is -1.
    pair_bits = sum((((codes >> (2 * i)) ^ (codes >> (2 * i + 1))) & 1) << i
                    for i in range(m))
    cells = []
    for a in range(1 << m):
        for b in range(1 << m):
            minus = (a ^ b).bit_count()
            cells.append(Cell(pair_bits == a, pair_bits == b,
                              -1 if 2 * minus > m else 1))
    return RectanglePartition(n, 2 * m, cells, window=range(2 * m))


def pair_parity_mass(m: int) -> float:
    """Level-2 mass of :func:`pair_parity_partition` with m pairs."""
    return m * math.comb(m - 1, (m - 1) // 2) / 2 ** (m - 1)


def forrelation_probe_partition(params: ForrParams, i: int = 0,
                                j: int = 0) -> RectanglePartition:
    """Cost-2 protocol probing one forrelation monomial: the players
    exchange the signs x_1(i) x_2(j) and y_1(i) y_2(j) and answer their
    product times (-1)^{<i,j>}, aligning with the lifted distribution's
    pair correlation eps (-1)^{<i,j>} / sqrt(N)."""
    if not (0 <= i < params.N and 0 <= j < params.N):
        raise ValueError(f"probe coordinates must lie in [0, {params.N})")
    w = int(f2_inner_sign(np.uint64(i), np.uint64(j)))
    # Window (i, N + j): code bit 0 is coordinate i, bit 1 is N + j, and
    # the product of the two signs is +1 on codes 0 and 3.
    plus = np.array([True, False, False, True])
    cells = [Cell(plus if s == 1 else ~plus, plus if t == 1 else ~plus,
                  w * s * t) for s in (1, -1) for t in (1, -1)]
    return RectanglePartition(params.input_length, 2, cells,
                              window=(i, params.N + j))
