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
from typing import NamedTuple, Sequence

import numpy as np

from . import quantum_sim
from ._bits import codes_to_signs, f2_inner_sign, signs_to_codes
from ._record import Record
from ._rng import Estimate, bernoulli_bits, mc_means, substream
from .boolean_fourier import (
    AUDIT_BLOCK,
    TRANSFORM_BYTES,
    FourierSpectrum,
    FunctionTable,
    SignVector,
    _row_chunks,
    fwht,
    inverse_spectrum,
    level_transform,
)
from .errors import PartitionError, ResourceLimitError
from .forrelation_dist import (
    ForrParams,
    Label,
    lifted_rows,
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
    "RectanglePartition",
    "protocol_spectrum",
    "protocol_H",
    "L2Audit",
    "l2_audit",
    "advantage",
    "random_protocol_partition",
    "check_partition_size",
    "pair_parity_partition",
    "pair_parity_mass",
    "trivial_partition",
    "forrelation_probe_partition",
]

DENSE_CAP = 16  # max window size |R|, and max n for full 2^n protocol tables
TREE_WORDS = 1 << 10  # uint32 words per read of a large random tree's stream
# Bytes of boolean cell masks per block of fourier-audit partitions: small
# enough that blocking never raises a run's peak memory.
AUDIT_BYTES = 1 << 16


# ---------------------------------------------------------------------------
# Quantum protocol

class QuantumProtocolConfig(Record):
    """Copies, decision threshold, and seed for one protocol run.

    ``threshold`` defaults to 1/2 + (3/32) eps, the promise-regime cut;
    amplified-gap experiments pass their own.  A run keeps one uint8 bit
    per copy, so more copies than ``MAX_STATE_BYTES`` raise
    ``ResourceLimitError``.
    """

    __slots__ = _compare = ("params", "copies", "threshold", "seed")

    def __init__(self, params: ForrParams, copies: int,
                 threshold: float | None = None, seed: int = 0):
        if copies < 1:
            raise ValueError(f"copies must be positive, got {copies}")
        if copies > quantum_sim.MAX_STATE_BYTES:
            raise ResourceLimitError(
                f"{copies} copies need {copies} bytes of copy "
                f"bits, over {quantum_sim.MAX_STATE_BYTES}")
        if threshold is not None and not 0.0 <= threshold <= 1.0:
            raise ValueError(
                f"threshold must be a finite number in [0, 1], got {threshold}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "seed", seed)

    @property
    def decision_threshold(self) -> float:
        if self.threshold is not None:
            return self.threshold
        return 0.5 + (3.0 / 32.0) * self.params.eps


class ProtocolRunStats(Record):
    """Outcome and cost accounting of one protocol run."""

    __slots__ = ("ones_fraction", "per_copy_bits", "decision", "qubits_sent",
                 "oracle_calls", "gate_count")

    def __init__(self, ones_fraction: float, per_copy_bits: np.ndarray,
                 decision: Label, qubits_sent: int, oracle_calls: int,
                 gate_count: int):
        for name, value in zip(self.__slots__, (
                ones_fraction, per_copy_bits, decision, qubits_sent,
                oracle_calls, gate_count)):
            object.__setattr__(self, name, value)


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


def _copy_cost(params: ForrParams) -> tuple[int, int]:
    """``build_copy_circuit``'s qubits 2L and gates 8L + 2, L = log2(2N):
    3L H, 3L - 1 CNOT, 2L R_pi/8, 2 oracles and 1 measurement."""
    half = params.n + 1
    return 2 * half, 8 * half + 2


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
    simulating the copies in order on that stream would, so a shorter run's
    bits are a prefix of a longer run's.  Bits are i.i.d. with P[1] = 1/2 +
    forr(x . y)/2.  Cost accounting is that of the full single-copy
    circuit, which depends only on N (``_copy_cost``).
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
    qubits, gates = _copy_cost(params)
    half = params.n + 1  # log2(2N)

    state = StateVector(half, xs * ys / math.sqrt(params.input_length))
    for gate in referee_gates(half):
        apply_gate(state, gate)
    p_ones = swap_test_probability(state, half - 1)

    out = []
    for c, p_one in zip(cfgs, p_ones):
        bits = bernoulli_bits(substream(c.seed, 0), p_one, c.copies)
        # A Python float, so the CSV keeps repr(float) of count / copies.
        ones_fraction = int(np.count_nonzero(bits)) / c.copies
        decision = Label.YES if ones_fraction > c.decision_threshold else Label.NO
        out.append(ProtocolRunStats(
            ones_fraction=ones_fraction,
            per_copy_bits=bits,
            decision=decision,
            qubits_sent=c.copies * qubits,
            oracle_calls=c.copies * 2,
            gate_count=c.copies * gates,
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


# ---------------------------------------------------------------------------
# Rectangle partitions

def _checked_window(n: int, cost: int,
                    window: Sequence[int] | None) -> np.ndarray:
    """A partition's window R as an index array, after the checks on n,
    the cost and R that come before any mask is looked at."""
    if n < 1:
        raise ValueError(f"input length must be positive, got {n}")
    if cost < 0:
        raise ValueError(f"cost must be nonnegative, got {cost}")
    if window is None:
        window = np.arange(n, dtype=np.intp)
    else:
        window = np.asarray(window, dtype=np.intp)
        if (window.ndim != 1 or np.any(window[1:] <= window[:-1]) or
                (window.size and not 0 <= window[0] <= window[-1] < n)):
            raise ValueError(
                f"window must be sorted distinct coordinates in [0, {n})")
    if window.size > DENSE_CAP:
        raise ResourceLimitError(
            f"a window of {window.size} coordinates exceeds the mask cap "
            f"{DENSE_CAP}")
    return window


def _leaves_merge(alice: np.ndarray, bob: np.ndarray) -> bool:
    """Whether the cells with stacked masks ``alice`` and ``bob``, in
    order, merge into the full window square, which proves that they
    partition it.

    The cells are pushed in order onto a stack of rectangles, as pairs of
    Python-int bitsets.  While the top two entries agree exactly on one
    side and have disjoint other sides, they are replaced by their union.
    Each merge joins two disjoint rectangles A1 x B and A2 x B (or A x B1
    and A x B2) into the rectangle (A1 | A2) x B, so by induction every
    entry is the disjoint union of the cells pushed into it, and a single
    entry left that is the full square proves the partition.  Each cell is
    pushed once and each merge pops one entry, so that is O(cells) big-int
    operations.  Sibling leaves of a protocol tree share the listener's
    side and split the speaker's, so leaves written depth first are meant
    to merge back up to the root; False proves nothing, and the caller
    then checks the cells pair by pair."""
    def bitsets(masks):
        # packbits keeps a column-major input's layout (a fancy-indexed
        # view), and the row view below needs C order.
        packed = np.ascontiguousarray(
            np.packbits(masks, axis=1, bitorder="little"))
        rows = packed.view(f"V{packed.shape[1]}")[:, 0].tolist()
        return [int.from_bytes(row, "little") for row in rows]

    stack = []
    for a, b in zip(bitsets(alice), bitsets(bob)):
        while stack:
            top_a, top_b = stack[-1]
            if top_b == b and not top_a & a:
                a |= top_a
            elif top_a == a and not top_b & b:
                b |= top_b
            else:
                break
            stack.pop()
        stack.append((a, b))
    full = (1 << alice.shape[1]) - 1
    return stack == [(full, full)]


class RectanglePartition:
    """A deterministic protocol of cost c as a partition of the input
    square into at most 2^c rectangles.

    Every cell reads only the coordinates in ``window``, a sorted list R of
    at most DENSE_CAP distinct coordinates in [0, n), all n by default, so
    the protocol is a partition of the 2^|R| x 2^|R| window square and is
    validated exactly on it.

    The cells are given stacked: cell i has the Alice mask ``alice[i]``,
    the Bob mask ``bob[i]`` and the +-1 output ``outputs[i]``, where
    ``alice`` and ``bob`` are boolean arrays of shape (cells, 2^|R|) and
    ``outputs`` is one-dimensional.  Entry c of a mask is the membership of
    every input whose window coordinates have point code c, with bit b of c
    encoding coordinate R[b].  The mask arrays become the partition's own
    and are made read-only, and the outputs are kept as a read-only int8
    vector.

    Every partition is first offered to :func:`_leaves_merge`, which
    proves in time linear in the cells that the leaves of a protocol tree,
    written depth first, partition the square.  Cells it cannot merge are
    checked pairwise.
    """

    def __init__(self, n: int, cost: int, alice: np.ndarray, bob: np.ndarray,
                 outputs, window: Sequence[int] | None = None):
        window = _checked_window(n, cost, window)
        outputs = np.asarray(outputs)
        if outputs.ndim != 1:
            raise ValueError(
                f"outputs must be one-dimensional, got shape {outputs.shape}")
        for mask in (alice, bob):
            if (not isinstance(mask, np.ndarray) or mask.dtype != np.bool_ or
                    mask.shape != (len(outputs), 1 << window.size)):
                raise ValueError(
                    "cells need boolean masks of length 2^|window|")
        bad = outputs[(outputs != 1) & (outputs != -1)]
        if bad.size:
            raise ValueError(f"cell output must be +-1, got {bad[0]}")
        if len(outputs) > (1 << cost):
            raise PartitionError(
                f"{len(outputs)} cells exceed 2^cost = {1 << cost}")
        self.n = n
        self.cost = cost
        self.window = window
        self.alice = alice
        self.bob = bob
        self.outputs = outputs.astype(np.int8)
        for array in (alice, bob, self.outputs):
            array.flags.writeable = False
        if not _leaves_merge(alice, bob):
            self._check_pairwise()

    def _check_pairwise(self):
        # Pairwise-disjoint rectangles plus full total measure is exactly the
        # partition property.  Two cells overlap when both their Alice sides
        # and their Bob sides meet.  An AND of the bit-packed masks tests
        # AUDIT_BLOCK cells at a time against themselves and the later cells,
        # the Bob sides only where the Alice sides meet: exact, and in one
        # thread.  Sides are packed into zero-padded 64-bit words laid out
        # (words, cells), so word j of every cell is one contiguous row; the
        # pad bits never meet.
        def words(masks):
            packed = np.packbits(masks, axis=1)
            padded = np.zeros((len(masks), -(-packed.shape[1] // 8) * 8),
                              dtype=np.uint8)
            padded[:, :packed.shape[1]] = packed
            return padded.view(np.uint64).T.copy()

        alice_bits, bob_bits = words(self.alice), words(self.bob)
        for start in range(0, len(self.outputs), AUDIT_BLOCK):
            rows = slice(start, start + AUDIT_BLOCK)
            meet = (alice_bits[:, rows, None] & alice_bits[:, None, start:]
                    ).any(axis=0)
            np.fill_diagonal(meet, False)
            cols = np.flatnonzero(meet.any(axis=0))
            bob = bob_bits[:, rows, None] & bob_bits[:, None, start + cols]
            if (bob.any(axis=0) & meet[:, cols]).any():
                raise PartitionError("cells overlap on the input square")
        total = int(self.alice.sum(axis=1) @ self.bob.sum(axis=1))
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
        for alice, bob, output in zip(self.alice, self.bob, self.outputs):
            out[alice[x_codes] & bob[y_codes]] = output
        return out


def trivial_partition(n: int, output: int = 1) -> RectanglePartition:
    """The cost-0 protocol that always answers ``output``; it reads no
    coordinate, so its one cell has one-point sides."""
    full = np.ones((1, 1), dtype=bool)
    return RectanglePartition(n, 0, full, full, [output], window=())


def _audit_rows(k: int) -> int:
    """Cells per stacked transform at window size k: as many as fill
    ``TRANSFORM_BYTES`` / 8 entries of Alice and Bob tables, and at least
    AUDIT_BLOCK, which bounds memory at a window of DENSE_CAP coordinates."""
    return max(AUDIT_BLOCK, TRANSFORM_BYTES // (16 << k))


def _cell_sums(ps: Sequence[RectanglePartition],
               transform) -> tuple[np.ndarray, np.ndarray]:
    """For the partitions ``ps``, which share a window size, one row each of
    the sum over the partition's cells of out_c T(A_c) T(B_c), with T the
    unnormalized ``transform`` over the window of the cell's Alice and Bob
    indicators, and one entry each of the largest density of any of the
    partition's cell sides.

    The cells of all the partitions, in order, are transformed
    ``_audit_rows`` at a time: a chunk's boolean tables are filled from row
    slices of the stacked masks of the partitions it spans, and its terms
    are summed per partition.  Every term is an integer below 2^53, so every
    sum is exact in any order, and a partition's sums do not depend on its
    chunks."""
    k = ps[0].window.size
    counts = [len(p.outputs) for p in ps]
    step = _audit_rows(k)
    # One table buffer serves every chunk, so no two are alive at once.
    buffer = np.empty((2, min(step, sum(counts)), 1 << k), dtype=bool)
    out_buffer = np.empty((buffer.shape[1], 1))
    sums = densest = None
    for chunk in _row_chunks(counts, step):
        # Chunk row heads[j] is the first of piece j; every piece has a
        # cell, so no reduceat segment is empty.
        ids = [i for i, _, _ in chunk]
        sizes = [hi - lo for _, lo, hi in chunk]
        ends = np.cumsum(sizes)
        heads = ends - sizes
        tables = buffer[:, :ends[-1]]
        outputs = out_buffer[:ends[-1]]
        for (i, lo, hi), head, end in zip(chunk, heads, ends):
            tables[0, head:end] = ps[i].alice[lo:hi]
            tables[1, head:end] = ps[i].bob[lo:hi]
            outputs[head:end, 0] = ps[i].outputs[lo:hi]
        dense = np.maximum.reduceat(tables.mean(axis=-1).max(axis=0), heads)
        alice, bob = transform(tables)
        alice *= outputs
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
        return np.empty(tables.shape[:-1] + (0,))
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
    A chunk draws its pairs (x, x . z) by ``lifted_rows``, then uniform y.
    """
    if p.n != params.input_length:
        raise ValueError(
            f"partition is over length {p.n}, params give {params.input_length}")

    def draw(gen, k):
        x, y_lift = lifted_rows(gen, params, k)
        y_unif = uniform_sign_rows(gen, (k, p.n))
        return (p.evaluate_rows(x, y_lift).astype(np.float64) -
                p.evaluate_rows(x, y_unif).astype(np.float64))
    return mc_means([(draw, seed)], samples)[0]


def random_protocol_partition(n: int, cost: int, seed: int) -> RectanglePartition:
    """Partition induced by a random communication tree of depth ``cost``:
    at each node a random speaker announces a random bipartition of their
    compatible set; leaves answer a random sign.  The tree is drawn from
    substream (seed, 0) as :func:`_random_tree_masks` describes."""
    if cost < 0:
        raise ValueError(f"cost must be nonnegative, got {cost}")
    if n > DENSE_CAP:
        raise ResourceLimitError(f"random dense partitions need n <= {DENSE_CAP}")
    check_partition_size(n, cost)
    return RectanglePartition(n, cost, *_random_tree_masks(n, cost, seed))


def check_partition_size(n: int, cost: int) -> None:
    """Refuse a random depth-``cost`` partition over 2^n points per side
    whose two mask stacks, 2^min(cost, 2n) rows of 2^n bytes each, would
    together need more than MAX_STATE_BYTES; callers check before they
    draw."""
    need = 2 << (min(cost, 2 * n) + n)
    if need > quantum_sim.MAX_STATE_BYTES:
        raise ResourceLimitError(
            f"a cost-{cost} random partition over 2^{n} points per side "
            f"needs {need} bytes of cell masks, over "
            f"{quantum_sim.MAX_STATE_BYTES}")


def _random_tree_masks(n: int, cost: int, seed: int) -> tuple[
        np.ndarray, np.ndarray, np.ndarray]:
    """The leaves of a random depth-``cost`` tree over 2^n points per side
    as stacked Alice masks, Bob masks and int8 outputs, in depth-first
    order: at each split, the part of the speaker's set inside the message
    before the part outside it.  In that order the leaves merge back into
    the full square (see :func:`_leaves_merge`).

    The tree reads the uint32 words of substream (seed, 0) in stream order:
    a node's message takes ceil(2^n / 4) words whose bytes' top bits are
    its 2^n bits, then one word whose top bit picks the speaker (0 is
    Alice); a leaf takes one word whose top bit picks the sign (0 is +1).
    Those are the words and bits that per-node ``integers(0, 2, size=2^n,
    dtype=uint8)`` and ``integers(2)`` draws and per-leaf ``integers(2)``
    draws consume.  The stream is read by ``random_raw`` in refills of
    about ``TREE_WORDS`` uint32 words, or of the most words the tree can
    read if that is fewer: each 64-bit word gives its low half, then its
    high half, as those draws do, and only the four top bits of each half
    are kept, packed by :func:`_top_bits`.  A refill's last high half that
    the tree has not reached stays in the buffer for the next node.

    Each side is a Python-int bitset, bit p holding point p, so a split is
    an ``&`` and an ``^``, and a part of a split that is empty is pruned.
    The leaves' bitsets are unpacked once, at the end, into two
    C-contiguous (leaves, 2^n) bool arrays.
    """
    raw = substream(seed, 0).bit_generator.random_raw
    points = 1 << n
    full = (1 << points) - 1
    msg_words = -(-points // 4)
    # The most words the tree can read: a message and a speaker word for
    # each internal node, of which there are at most 2^cost - 1 up to cost
    # 2n and at most cost above each of the at most 4^n leaves past it (the
    # leaves are disjoint nonempty rectangles), and one word for each leaf.
    leaves = 1 << min(cost, 2 * n)
    nodes = leaves - 1 if cost <= 2 * n else leaves * cost
    most = nodes * (msg_words + 1) + leaves
    # Nibble w of tops, low nibble first, holds the top bits of the bytes
    # of word w of the buffer; word pos is the next one to read.
    tops = b""
    pos = 0
    alice, bob, outputs = [], [], []
    # Pending subtrees, the next one on top.
    stack = [(full, full, 0)]
    while stack:
        amask, bmask, depth = stack.pop()
        need = 1 if depth == cost else msg_words + 1
        if pos + need > 2 * len(tops):
            fresh = raw(-(-max(need, min(most, TREE_WORDS)) // 2))
            tops = tops[pos >> 1:] + _top_bits(fresh)
            pos &= 1
        if depth == cost:
            alice.append(amask)
            bob.append(bmask)
            outputs.append(-1 if (tops[pos >> 1] >> 4 * (pos & 1) + 3) & 1
                           else 1)
            pos += 1
            continue
        end = pos + msg_words
        msg = (int.from_bytes(tops[pos >> 1:(end + 1) >> 1], "little")
               >> 4 * (pos & 1)) & full
        alice_speaks = not (tops[end >> 1] >> 4 * (end & 1) + 3) & 1
        pos = end + 1
        side = amask if alice_speaks else bmask
        inside = side & msg
        # The part inside the message pops first.
        for part in (side ^ inside, inside):
            if part:
                stack.append((part, bmask, depth + 1) if alice_speaks else
                             (amask, part, depth + 1))
    sides = _unpack_sides(alice + bob, points)
    return (sides[:len(alice)], sides[len(alice):],
            np.array(outputs, dtype=np.int8))


def _top_bits(words: np.ndarray) -> bytes:
    """One byte per raw 64-bit word, bit j holding bit 8 j + 7 of the word:
    the top bits of the bytes of its low uint32 half, then of its high
    half.  Integer operations only, so the result does not depend on the
    machine's byte order; ``words`` is overwritten."""
    words &= 0x8080808080808080
    # Bit 8 j + 7 lands on bit 56 + j; no two partial products land on one
    # bit, so none carries.
    words *= 0x0002040810204081
    words >>= 56
    return words.astype(np.uint8).tobytes()


def _unpack_sides(sides: list[int], points: int) -> np.ndarray:
    """Python-int bitsets over ``points`` points as a C-contiguous
    (len(sides), points) bool array, bit p of a set as entry p.  Sibling
    leaves share the listener's side, so a side that is the one before it
    reuses its bytes."""
    size = -(-points // 8)
    rows, last, row = [], None, b""
    for side in sides:
        if side is not last:
            last, row = side, side.to_bytes(size, "little")
        rows.append(row)
    # One flat unpack is faster than a per-row one; below 8 points the
    # rows' pad bits are cut off after it.
    bits = np.unpackbits(np.frombuffer(b"".join(rows), dtype=np.uint8),
                         bitorder="little").reshape(len(sides), 8 * size)
    return np.ascontiguousarray(bits[:, :points]).view(bool)


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
    # In cell a 2^m + b, Alice announced products a and Bob products b.
    a, b = np.divmod(np.arange(1 << (2 * m)), 1 << m)
    minus = np.bitwise_count(a ^ b)
    return RectanglePartition(
        n, 2 * m, pair_bits == a[:, None], pair_bits == b[:, None],
        np.where(2 * minus > m, -1, 1), window=range(2 * m))


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
    # the product of the two signs is +1 on codes 0 and 3.  For s, t in
    # (1, -1), cell (s, t) has sides[s < 0] x sides[t < 0] and output w s t.
    sides = np.array([[True, False, False, True], [False, True, True, False]])
    return RectanglePartition(
        params.input_length, 2, sides[[0, 0, 1, 1]], sides[[0, 1, 0, 1]],
        w * np.array([1, -1, -1, 1]), window=(i, params.N + j))
