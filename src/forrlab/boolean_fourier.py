"""Dense Fourier analysis over the Boolean hypercube {-1,1}^n.

A function f: {-1,1}^n -> R is stored as a length-2^n table indexed by point
codes (bit i of the code gives coordinate i as (-1)^bit).  Its spectrum is
the table of coefficients f_hat(S) = E_x[f(x) chi_S(x)] indexed by subset
bitmasks S, where chi_S(x) = prod_{i in S} x_i.

Normalization convention, fixed here once: :func:`fwht` is the unnormalized
transform (applying it twice multiplies by 2^n), while :func:`spectrum`
divides by 2^n so coefficients are expectations.  Convolution is
f*g(x) = E_y[f(y) g(y.x)] and factorizes as (f*g)_hat(S) = f_hat(S) g_hat(S).

Everything here is a pure function of its arguments except
:func:`fwht_inplace`, the one function that writes its argument.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from ._bits import (
    base64_to_signs,
    is_power_of_two,
    popcount,
    signs_to_base64,
)
from ._record import Record
from ._rng import substream, uniform_below
from .errors import ResourceLimitError

__all__ = [
    "SignVector",
    "FunctionTable",
    "FourierSpectrum",
    "fwht",
    "fwht_inplace",
    "level_transform",
    "spectrum",
    "inverse_spectrum",
    "convolve",
    "level_mass",
    "level_weight",
    "multilinear_eval",
    "character_table",
    "indicator_table",
    "level_k_bound",
    "subcube_violations",
    "random_indicator_violations",
]

# Random indicators drawn and transformed per block, cells per block of the
# pairwise partition check, and the fewest cells per protocol-audit transform.
AUDIT_BLOCK = 16
# Eight times the boolean table entries per stacked level-k transform of the
# subcube and protocol audits: enough that per-call overhead does not dominate.
TRANSFORM_BYTES = 1 << 18


class SignVector(Record):
    """A point of {-1,1}^n; doubles as an oracle input string.

    The canonical in-memory form is an int8 array of +-1.  ``to_base64``
    and ``from_base64`` give the instance wire format that
    ``gen-instances`` writes: little-endian packed bits (bit 1 <-> sign -1),
    base64-encoded.
    """

    __slots__ = ("signs",)

    def __init__(self, signs: np.ndarray):
        signs = np.asarray(signs, dtype=np.int8)
        if signs.ndim != 1:
            raise ValueError("SignVector takes a one-dimensional sign sequence")
        if not np.all(np.abs(signs) == 1):
            raise ValueError("SignVector entries must be exactly +-1")
        object.__setattr__(self, "signs", signs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SignVector) and
                np.array_equal(self.signs, other.signs))

    @property
    def n(self) -> int:
        return self.signs.shape[0]

    def __len__(self) -> int:
        return self.n

    def __mul__(self, other: "SignVector") -> "SignVector":
        """Coordinatewise sign product."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return SignVector(self.signs * other.signs)

    def to_base64(self) -> str:
        return signs_to_base64(self.signs)

    @classmethod
    def from_base64(cls, text: str, n: int) -> "SignVector":
        return cls(base64_to_signs(text, n))


class FunctionTable(Record):
    """Dense table of f: {-1,1}^n -> R, indexed by point code."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (1 << n,):
            raise ValueError(
                f"table for n={n} must have length {1 << n}, "
                f"got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must all be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)


class FourierSpectrum(Record):
    """Fourier coefficients of a function, indexed by subset bitmask."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (1 << n,):
            raise ValueError(
                f"spectrum for n={n} must have length {1 << n}, "
                f"got shape {coeffs.shape}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    out[j] = sum_i (-1)^{popcount(i & j)} values[i].  Applying it twice
    multiplies by the length.  Leading axes are treated as a batch.  The
    butterfly stages run in a fixed order with elementwise numpy ops only,
    so results are bit-for-bit reproducible regardless of BLAS threading.
    Internally the transform axis is moved to the front of a copy, which
    ``fwht_inplace`` transforms; every element still sees the same adds in
    the same order, so the output is bit-for-bit the same as a row-by-row
    transform, and it comes back C-contiguous.
    """
    values = np.asarray(values, dtype=np.float64)
    size = values.shape[-1]
    if not is_power_of_two(size):
        raise ValueError(f"fwht length must be a power of two, got {size}")
    out = fwht_inplace(values.reshape(-1, size).T.copy())
    return np.ascontiguousarray(out.T).reshape(values.shape)


def fwht_inplace(table: np.ndarray) -> np.ndarray:
    """``fwht`` along the first axis of ``table``, a C-contiguous float64
    array, in place; returns ``table``.

    Column j gets the bits of ``fwht(table[:, j])``.  Each butterfly stage
    works on contiguous (pairs, 2, half, batch) blocks: it adds the pairs
    into one temporary of half the table, subtracts them in place, then
    copies the sums back.
    """
    size = table.shape[0]
    if not is_power_of_two(size):
        raise ValueError(f"fwht length must be a power of two, got {size}")
    if table.dtype != np.float64 or not table.flags.c_contiguous:
        raise ValueError("fwht_inplace needs a C-contiguous float64 table")
    batch = table[0].size
    half = 1
    while half < size:
        view = table.reshape(size // (2 * half), 2, half, batch)
        lo, hi = view[:, 0], view[:, 1]
        top = lo + hi
        np.subtract(lo, hi, out=hi)
        lo[...] = top
        half *= 2
    return table


def spectrum(f: FunctionTable) -> FourierSpectrum:
    """Fourier coefficients f_hat(S) = 2^{-n} sum_x f(x) chi_S(x)."""
    return FourierSpectrum(f.n, fwht(f.values) / (1 << f.n))


def inverse_spectrum(s: FourierSpectrum) -> FunctionTable:
    """Rebuild the point table from coefficients (exact inverse of spectrum)."""
    return FunctionTable(s.n, fwht(s.coeffs))


def convolve(f: FunctionTable, g: FunctionTable) -> FunctionTable:
    """Convolution f*g(x) = E_y[f(y) g(y.x)].

    Computed as two forward transforms, a pointwise product, and an inverse
    transform; the spectrum of the result is the pointwise product of the
    input spectra.
    """
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    size = 1 << f.n
    prod = fwht(f.values) * fwht(g.values)
    return FunctionTable(f.n, fwht(prod) / (size * size))


def _level_masks(n: int, k: int) -> np.ndarray:
    if not 0 <= k <= n:
        raise ValueError(f"level k must satisfy 0 <= k <= {n}, got {k}")
    return popcount(np.arange(1 << n)) == k


@functools.cache
def _level_characters(n: int, k: int) -> np.ndarray:
    """The (2^n, C(n, k)) float32 matrix of +-1 characters chi_S(x), one
    column per size-k subset S in ascending mask order.  Cached: about
    30 MiB at (16, 2), and read-only since every caller shares it.  A
    matrix over ``quantum_sim.MAX_STATE_BYTES`` raises
    ``ResourceLimitError`` before anything is allocated."""
    from .quantum_sim import MAX_STATE_BYTES  # it imports this module
    need = 4 * math.comb(n, k) << n
    if need > MAX_STATE_BYTES:
        raise ResourceLimitError(
            f"level-{k} characters on {n} variables need {need} bytes, "
            f"over {MAX_STATE_BYTES}")
    codes = np.arange(1 << n, dtype=np.uint32)
    subsets = codes[np.bitwise_count(codes) == k]
    odd = np.bitwise_count(codes[:, None] & subsets) & 1
    characters = np.where(odd, np.float32(-1), np.float32(1))
    characters.flags.writeable = False
    return characters


def level_transform(values: np.ndarray, k: int) -> np.ndarray:
    """The level-k columns of the transform along the last axis, in
    ascending subset-mask order: ``fwht(values)[..., level-k masks]`` bit
    for bit, as float64, from one float32 product with cached characters.

    Only bool and int8 tables over at most 2^17 points are taken: every
    partial sum is then an integer of magnitude at most 128 * 2^17 = 2^24,
    which float32 holds exactly, whatever the summation order.  Use
    :func:`fwht` for other values.  A character matrix over
    ``quantum_sim.MAX_STATE_BYTES`` raises ``ResourceLimitError`` before
    the table is cast.
    """
    values = np.asarray(values)
    size = values.shape[-1]
    if not is_power_of_two(size):
        raise ValueError(f"fwht length must be a power of two, got {size}")
    if values.dtype not in (np.bool_, np.int8) or size > 1 << 17:
        raise ValueError("level_transform takes bool or int8 tables of at "
                         f"most 2^17 points, got {values.dtype} of {size}")
    n = size.bit_length() - 1
    if not 0 <= k <= n:
        raise ValueError(f"level k must satisfy 0 <= k <= {n}, got {k}")
    characters = _level_characters(n, k)
    product = values.astype(np.float32) @ characters
    return product.astype(np.float64)


def level_mass(s: FourierSpectrum, k: int) -> float:
    """Level-k Fourier mass: sum of |f_hat(S)| over subsets of size k."""
    return float(np.abs(s.coeffs[_level_masks(s.n, k)]).sum())


def level_weight(s: FourierSpectrum, k: int) -> float:
    """Level-k Fourier weight: sum of f_hat(S)^2 over subsets of size k."""
    return float(np.square(s.coeffs[_level_masks(s.n, k)]).sum())


def multilinear_eval(s: FourierSpectrum, point: np.ndarray) -> float | np.ndarray:
    """Evaluate the multilinear extension sum_S f_hat(S) prod_{i in S} x_i.

    ``point`` may be a single length-n vector or a batch (..., n).  At
    points of {-1,1}^n this reproduces the original table values.  The
    evaluation runs the same butterfly as the FWHT with coordinate values in
    place of the +-1 signs, one stage per variable.
    """
    point = np.asarray(point, dtype=np.float64)
    if point.shape[-1] != s.n:
        raise ValueError(f"point has {point.shape[-1]} coordinates, expected {s.n}")
    if not np.all(np.isfinite(point)):
        raise ValueError("point coordinates must be finite")
    single = point.ndim == 1
    pts = point.reshape(-1, s.n)
    acc = np.broadcast_to(s.coeffs, (pts.shape[0], 1 << s.n)).copy()
    for i in range(s.n):
        # Pair off on the current lowest mask bit, which is variable i once
        # bits 0..i-1 have been contracted away.
        view = acc.reshape(pts.shape[0], -1, 2)
        acc = view[..., 0] + pts[:, i][:, None] * view[..., 1]
    out = acc[:, 0]
    return float(out[0]) if single else out


def character_table(n: int, mask: int) -> FunctionTable:
    """The character chi_S as a dense table, S given as a bitmask."""
    if not 0 <= mask < (1 << n):
        raise ValueError(f"subset mask {mask} out of range for n={n}")
    values = 1.0 - 2.0 * (popcount(np.arange(1 << n) & mask) & 1)
    return FunctionTable(n, values)


def indicator_table(n: int, members: np.ndarray) -> FunctionTable:
    """0/1 indicator of a point set given as a boolean mask over codes."""
    members = np.asarray(members, dtype=bool)
    return FunctionTable(n, members.astype(np.float64))


def level_k_bound(alpha: float, k: int) -> float:
    """Upper bound alpha^2 (2e ln(1/alpha) / k)^k on the level-k weight of a
    0/1-valued function with mean alpha, valid for k <= 2 ln(1/alpha)."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if k < 1:
        raise ValueError(f"level k must be at least 1, got {k}")
    log_inv = math.log(1.0 / alpha)
    if k > 2 * log_inv:
        raise ValueError(f"bound requires k <= 2 ln(1/alpha) = {2 * log_inv:.4f}")
    return alpha * alpha * (2 * math.e * log_inv / k) ** k


def _level_weights(members: np.ndarray, k: int) -> np.ndarray:
    """Level-k weight of each row's 0/1 indicator, from one
    :func:`level_transform` of the boolean (rows, 2^n) block; row r equals
    ``level_weight(spectrum(indicator_table(n, members[r])), k)``."""
    level = level_transform(members, k)
    return np.square(level / members.shape[-1]).sum(axis=1)


def _row_chunks(counts: Sequence[int], step: int):
    """Chunks of ``step`` rows, the last one ragged, of runs of ``counts``
    rows laid end to end: each chunk is the list of (run, first row, end
    row) pieces it takes from consecutive runs, in order."""
    chunk, fill = [], 0
    for run, count in enumerate(counts):
        lo = 0
        while lo < count:
            hi = min(count, lo + step - fill)
            chunk.append((run, lo, hi))
            fill += hi - lo
            lo = hi
            if fill == step:
                yield chunk
                chunk, fill = [], 0
    if chunk:
        yield chunk


def _subcube_blocks(n: int, k: int):
    """Yield (tables, bounds) blocks of the 0/1 subcube indicators on n
    variables that the level-k bound applies to, each row with its own bound
    plus 1e-12.  The fixed-coordinate masks are walked in order, and the
    2^popcount(mask) subcubes of consecutive masks fill one boolean buffer
    of about TRANSFORM_BYTES / 8 entries, so a mask's subcubes may span two
    blocks; each block is a view of that buffer, overwritten by the next."""
    codes = np.arange(1 << n)
    rows = max(1, TRANSFORM_BYTES // (8 << n))
    tables = np.empty((rows, 1 << n), dtype=bool)
    bounds = np.empty(rows)
    masks = []
    for mask in range(1, 1 << n):
        alpha = 2.0 ** -mask.bit_count()
        if k > 2 * math.log(1 / alpha):
            continue
        masks.append((mask, level_k_bound(alpha, k) + 1e-12))
    for chunk in _row_chunks([1 << m.bit_count() for m, _ in masks], rows):
        fill = 0
        for i, lo, hi in chunk:
            mask, bound = masks[i]
            wants = codes[(codes & ~mask) == 0][lo:hi]
            np.equal(codes & mask, wants[:, None],
                     out=tables[fill:fill + hi - lo])
            bounds[fill:fill + hi - lo] = bound
            fill += hi - lo
        yield tables[:fill], bounds[:fill]


def subcube_violations(n: int, k: int) -> tuple[int, int]:
    """(violations, checked) of the level-k bound over every subcube
    indicator on n variables with at least ceil(k / (2 ln 2)) fixed
    coordinates (so the bound applies).  The subcubes of consecutive
    fixed-coordinate masks are transformed together, in blocks of about
    TRANSFORM_BYTES / 8 table entries (128 tables at n = 8)."""
    checked = violations = 0
    for tables, bounds in _subcube_blocks(n, k):
        violations += int(np.count_nonzero(_level_weights(tables, k) > bounds))
        checked += len(bounds)
    return violations, checked


def _random_indicators(n: int, k: int, count: int, seed: int):
    """Yield (members, alphas) blocks holding ``count`` accepted random
    indicators on n variables in all, drawn from substream (seed, 0).

    Candidate i takes 2^n + 1 consecutive raw words, the words of as many
    ``gen.random()`` uniforms: the first word's uniform u, made as that
    double, sets its density 0.02 + 0.33 u (the value
    ``gen.uniform(0.02, 0.35)`` returns); member j is whether uniform j + 1
    falls below it, read from its word by ``uniform_below``.  Candidates are
    drawn AUDIT_BLOCK at a time; one whose mean alpha is 0 or too large for
    the level-k bound is skipped.  Rows drawn past the last one needed are
    never used."""
    raw = substream(seed, 0).bit_generator.random_raw
    left = count
    while left > 0:
        words = raw((AUDIT_BLOCK, (1 << n) + 1))
        density = 0.02 + (0.35 - 0.02) * ((words[:, 0] >> 11) * 2.0 ** -53)
        members = uniform_below(words[:, 1:], density)
        alphas = np.count_nonzero(members, axis=1) / (1 << n)
        keep = [r for r, alpha in enumerate(alphas.tolist())
                if alpha > 0 and k <= 2 * math.log(1 / alpha)][:left]
        left -= len(keep)
        if keep:
            yield members[keep], alphas[keep]


def random_indicator_violations(n: int, k: int, count: int,
                                seed: int) -> tuple[int, int]:
    """(violations, checked) of the level-k bound over ``count`` random
    indicators on n variables, each of density drawn from [0.02, 0.35);
    empty draws and draws too dense for the bound to apply are skipped.
    Accepted indicators are transformed in blocks of at most AUDIT_BLOCK
    tables."""
    checked = violations = 0
    for members, alphas in _random_indicators(n, k, count, seed):
        weights = _level_weights(members, k)
        bounds = np.array([level_k_bound(a, k) + 1e-12 for a in alphas])
        checked += len(alphas)
        violations += int(np.count_nonzero(weights > bounds))
    return violations, checked
