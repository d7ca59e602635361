"""Dense Fourier analysis over the Boolean hypercube {-1,1}^n.

A function f: {-1,1}^n -> R is stored as a length-2^n table indexed by point
codes (bit i of the code gives coordinate i as (-1)^bit).  Its spectrum is
the table of coefficients f_hat(S) = E_x[f(x) chi_S(x)] indexed by subset
bitmasks S, where chi_S(x) = prod_{i in S} x_i.

Normalization convention, fixed here once: :func:`fwht` is the unnormalized
transform (applying it twice multiplies by 2^n), while :func:`spectrum`
divides by 2^n so coefficients are expectations.  Convolution is
f*g(x) = E_y[f(y) g(y.x)] and factorizes as (f*g)_hat(S) = f_hat(S) g_hat(S).

Everything here is a pure function of its arguments; tables are never
mutated in place.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._bits import (
    base64_to_signs,
    is_power_of_two,
    popcount,
    signs_to_base64,
)
from ._rng import substream

__all__ = [
    "SignVector",
    "FunctionTable",
    "FourierSpectrum",
    "fwht",
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

AUDIT_BLOCK = 16  # tables per fwht call in the level-k audits and protocol_H


@dataclass(frozen=True, eq=False)
class SignVector:
    """A point of {-1,1}^n; doubles as an oracle input string.

    The canonical in-memory form is an int8 array of +-1; the packed
    little-endian bit form (bit 1 <-> sign -1) is used on the wire.
    """

    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int8)
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


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """Dense table of f: {-1,1}^n -> R, indexed by point code."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (1 << self.n,):
            raise ValueError(
                f"table for n={self.n} must have length {1 << self.n}, "
                f"got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must all be finite")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Fourier coefficients of a function, indexed by subset bitmask."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (1 << self.n,):
            raise ValueError(
                f"spectrum for n={self.n} must have length {1 << self.n}, "
                f"got shape {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    out[j] = sum_i (-1)^{popcount(i & j)} values[i].  Applying it twice
    multiplies by the length.  Leading axes are treated as a batch.  The
    butterfly stages run in a fixed order with elementwise numpy ops only,
    so results are bit-for-bit reproducible regardless of BLAS threading.
    Internally the transform axis is moved to the front, so each stage works
    on contiguous (pairs, 2, half, batch) blocks; every element still sees
    the same adds in the same order, so the output is bit-for-bit the same
    as a row-by-row transform, and it comes back C-contiguous.
    """
    values = np.asarray(values, dtype=np.float64)
    size = values.shape[-1]
    if not is_power_of_two(size):
        raise ValueError(f"fwht length must be a power of two, got {size}")
    out = values.reshape(-1, size).T.copy()
    batch = out.shape[1]
    half = 1
    while half < size:
        view = out.reshape(size // (2 * half), 2, half, batch)
        top = view[:, 0] + view[:, 1]
        bot = view[:, 0] - view[:, 1]
        view[:, 0] = top
        view[:, 1] = bot
        half *= 2
    return np.ascontiguousarray(out.T).reshape(values.shape)


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
    """Level-k weight of each row's 0/1 indicator, from one transform of
    the (rows, 2^n) block; row r equals
    ``level_weight(spectrum(indicator_table(n, members[r])), k)``."""
    size = members.shape[-1]
    coeffs = fwht(members.astype(np.float64)) / size
    return np.square(coeffs[:, _level_masks(size.bit_length() - 1, k)]).sum(axis=1)


def subcube_violations(n: int, k: int) -> tuple[int, int]:
    """(violations, checked) of the level-k bound over every subcube
    indicator on n variables with at least ceil(k / (2 ln 2)) fixed
    coordinates (so the bound applies).  The subcubes of each fixed-coordinate
    mask are transformed in blocks of at most AUDIT_BLOCK tables."""
    checked = violations = 0
    codes = np.arange(1 << n)
    for mask in range(1, 1 << n):
        alpha = 2.0 ** -mask.bit_count()
        if k > 2 * math.log(1 / alpha):
            continue
        bound = level_k_bound(alpha, k) + 1e-12
        wants = codes[(codes & ~mask) == 0]
        for start in range(0, len(wants), AUDIT_BLOCK):
            block = wants[start:start + AUDIT_BLOCK]
            weights = _level_weights((codes & mask) == block[:, None], k)
            checked += len(block)
            violations += int(np.count_nonzero(weights > bound))
    return violations, checked


def random_indicator_violations(n: int, k: int, count: int,
                                seed: int) -> tuple[int, int]:
    """(violations, checked) of the level-k bound over ``count`` random
    indicators on n variables, each of density drawn from [0.02, 0.35);
    draws too sparse for the bound to apply are skipped.  Accepted
    indicators are transformed in blocks of at most AUDIT_BLOCK tables."""
    gen = substream(seed, 0)

    def accepted():
        while True:
            density = gen.uniform(0.02, 0.35)
            members = gen.uniform(size=1 << n) < density
            alpha = members.mean()
            if alpha > 0 and k <= 2 * math.log(1 / alpha):
                yield members, alpha

    draws = accepted()
    checked = violations = 0
    while checked < count:
        block = list(itertools.islice(draws, min(AUDIT_BLOCK, count - checked)))
        weights = _level_weights(np.array([m for m, _ in block]), k)
        bounds = np.array([level_k_bound(a, k) + 1e-12 for _, a in block])
        checked += len(block)
        violations += int(np.count_nonzero(weights > bounds))
    return violations, checked
