"""The forrelation functional and its input distributions.

A length-2N vector z = (z1, z2) is scored by how correlated its second half
is with the Hadamard transform of its first half:

    forr(z) = < H z1 / sqrt(N) , z2 / sqrt(N) >,   H the normalized Hadamard.

Three distributions over inputs are provided, all parameterized by the
half-length N and the coupling strength eps = 1/(50 ln N):

* the coupled Gaussian: first half i.i.d. N(0, eps), second half its
  normalized Hadamard image, giving covariance eps [[I, H], [H, I]];
* the forrelation sign distribution: a Gaussian draw, truncated to [-1, 1]
  coordinatewise, then rounded to signs independently per coordinate with
  matching conditional means;
* the lifted input distribution: a forrelation draw z masked by a uniform
  x, handing one player x and the other y = x . z, so that x . y = z while
  each marginal is uniform.

Instance generators wrap these into labeled two-player inputs; labels are
always computed from the measured forrelation, never assumed from the
generation mode.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._bits import is_power_of_two
from ._rng import Estimate, chunk_sizes, mc_mean, row_blocks, substream
from .boolean_fourier import SignVector, fwht, fwht_columns
from .errors import SamplingFailureError

__all__ = [
    "ForrParams",
    "forr",
    "truncate",
    "standard_normal_rows",
    "gaussian_rows",
    "round_rows",
    "forrelation_rows",
    "uniform_sign_rows",
    "sample_gaussian",
    "sample_forrelation",
    "sample_lifted",
    "moment_draw",
    "gaussian_moment",
    "Label",
    "InstanceMode",
    "LiftedInstance",
    "classify",
    "instance_rows",
    "generate_instance",
    "planted_instance",
]


@dataclass(frozen=True)
class ForrParams:
    """Problem size N (a power of two) and the derived coupling eps.

    eps is always 1/(50 ln N); pass ``eps_override`` only for exploratory
    runs in the amplified regime.
    """

    N: int
    eps_override: float | None = None

    def __post_init__(self):
        if self.N < 4 or not is_power_of_two(self.N):
            raise ValueError(f"N must be a power of two >= 4, got {self.N}")
        if self.eps_override is not None and not 0 < self.eps_override <= 1:
            raise ValueError(f"eps override must lie in (0, 1], got {self.eps_override}")

    @property
    def eps(self) -> float:
        if self.eps_override is not None:
            return self.eps_override
        return 1.0 / (50.0 * math.log(self.N))

    @property
    def n(self) -> int:
        """log2(N)."""
        return self.N.bit_length() - 1

    @property
    def input_length(self) -> int:
        """Length 2N of one player's input."""
        return 2 * self.N


def _check_pair_length(length: int) -> int:
    """Validate a 2N vector length and return N."""
    if length % 2 != 0 or not is_power_of_two(length // 2):
        raise ValueError(
            f"vector length must be 2 * (power of two), got {length}")
    return length // 2


def forr(z: np.ndarray) -> float | np.ndarray:
    """Forrelation of z = (z1, z2), batched over leading axes.

    Computed with one normalized Walsh-Hadamard transform in O(N log N):
    (1/(N sqrt(N))) sum_{i,j} (-1)^{<i,j>} z1(i) z2(j).  Sign inputs always
    land in [-1, 1] by Cauchy-Schwarz.
    """
    z = np.asarray(z, dtype=np.float64)
    N = _check_pair_length(z.shape[-1])
    w = fwht(z[..., :N])
    out = (w * z[..., N:]).sum(axis=-1) / (N * math.sqrt(N))
    return float(out) if out.ndim == 0 else out


def truncate(v: np.ndarray) -> np.ndarray:
    """Clamp every coordinate to [-1, 1]; idempotent."""
    return np.clip(np.asarray(v, dtype=np.float64), -1.0, 1.0)


def _box_muller(u: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Standard normals from (k, n) uniforms ``u`` (n even), columns ``cols``
    only, in that order (all n when None).

    Pair p has radius r = sqrt(-2 log(1 - u[:, p])) and angle
    a = 2 pi u[:, n/2 + p]; column c < n/2 is r cos(a) of pair c and column
    c >= n/2 is r sin(a) of pair c - n/2.  1 - u stays in (0, 1], keeping
    the log finite.  log1p, cos and sin only ever see contiguous arrays,
    since numpy's vector and scalar loops for them may differ in the last
    bit; so a column has the same bits whichever columns are asked for.
    Callers draw u with ``gen.random``: it gives the doubles that
    ``gen.uniform()`` gives (0 + 1 * u) without uniform's scaling pass.
    """
    half = u.shape[1] // 2
    if cols is None:
        out = np.empty(u.shape)
        radius = np.sqrt(-2.0 * np.log1p(-u[:, :half]))
        angle = 2.0 * np.pi * u[:, half:]
        np.multiply(radius, np.cos(angle), out=out[:, :half])
        np.multiply(radius, np.sin(angle), out=out[:, half:])
        return out
    pairs = cols % half
    radius = np.sqrt(-2.0 * np.log1p(-u[:, pairs]))
    angle = 2.0 * np.pi * u[:, half + pairs]
    sine = cols >= half
    trig = np.empty(angle.shape)
    trig[:, ~sine] = np.cos(angle[:, ~sine])
    trig[:, sine] = np.sin(angle[:, sine])
    return radius * trig


def standard_normal_rows(gen: np.random.Generator, k: int, n: int) -> np.ndarray:
    """(k, n) standard normals by Box-Muller on counter-based uniforms
    (n must be even).

    Each row consumes its own n uniforms in order, so row contents do not
    depend on the batch size.  Column c < n/2 is the cosine normal of pair
    c and column c >= n/2 the sine normal of pair c - n/2 (see
    ``_box_muller``, which ``moment_draw`` shares).
    """
    return _box_muller(gen.random(size=(k, n)))


def gaussian_rows(gen: np.random.Generator, params: ForrParams, k: int) -> np.ndarray:
    """k coupled-Gaussian rows of length 2N, drawn from ``gen``.

    Generator-based primitive for custom Monte Carlo loops; the seeded
    samplers below wrap it with fixed chunking.
    """
    first = math.sqrt(params.eps) * standard_normal_rows(gen, k, params.N)
    second = fwht(first) / math.sqrt(params.N)
    return np.concatenate([first, second], axis=1)


def round_rows(gen: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Round truncated rows to signs, independently per coordinate, with
    conditional mean equal to the truncated value.

    Rounds in row blocks; the uniforms are consumed in row order, so the
    result equals one unblocked draw of ``gen.uniform(size=rows.shape)``.
    """
    rows = np.asarray(rows)
    out = np.empty(rows.shape, dtype=np.int8)
    for block in row_blocks(len(rows), math.prod(rows.shape[1:])):
        probs = (1.0 + truncate(rows[block])) / 2.0
        u = gen.uniform(size=probs.shape)
        out[block] = np.where(u < probs, 1, -1)
    return out


def forrelation_rows(gen: np.random.Generator, params: ForrParams,
                     k: int) -> np.ndarray:
    """k forrelation-distributed sign rows of length 2N, drawn from ``gen``."""
    return round_rows(gen, gaussian_rows(gen, params, k))


def uniform_sign_rows(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform +-1 entries of the given shape, drawn from ``gen``."""
    return (1 - 2 * gen.integers(0, 2, size=shape, dtype=np.int8)).astype(np.int8)


def _chunked(seed: int, samples: int | None, draw):
    """Run ``draw(gen, k)`` over fixed-size chunks with per-chunk substreams.

    Chunk i always uses substream(seed, i), so the result is a pure function
    of (seed, samples) no matter how chunks are scheduled.
    """
    if samples is None:
        return draw(substream(seed, 0), 1)[0]
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    parts = [draw(substream(seed, i), k)
             for i, k in enumerate(chunk_sizes(samples))]
    return np.concatenate(parts, axis=0)


def sample_gaussian(params: ForrParams, seed: int,
                    samples: int | None = None) -> np.ndarray:
    """Draw from the coupled Gaussian over 2N coordinates.

    Returns shape (2N,) when ``samples`` is None, else (samples, 2N).  The
    second half of every row is exactly the normalized Hadamard image of the
    first half.
    """
    return _chunked(seed, samples, lambda gen, k: gaussian_rows(gen, params, k))


def sample_forrelation(params: ForrParams, seed: int,
                       samples: int | None = None) -> np.ndarray:
    """Draw sign vectors from the forrelation distribution.

    Each coordinate of a truncated Gaussian draw is rounded to +-1
    independently with conditional mean equal to the truncated value.
    """
    return _chunked(seed, samples,
                    lambda gen, k: forrelation_rows(gen, params, k))


def sample_lifted(params: ForrParams, seed: int,
                  samples: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw lifted input pairs (x, y) with x uniform and y = x . z for a
    forrelation-distributed z.  Marginally each of x, y is uniform, and
    x . y recovers z."""
    def draw(gen, k):
        z = forrelation_rows(gen, params, k)
        x = uniform_sign_rows(gen, z.shape)
        return np.stack([x, x * z], axis=1)
    out = _chunked(seed, samples, draw)
    if samples is None:
        return out[0], out[1]
    return out[:, 0, :], out[:, 1, :]


def moment_draw(params: ForrParams, s_set: Iterable[int],
                t_set: Iterable[int]):
    """The draw ``(gen, k) -> products`` whose mean is the moment
    E[prod_{i in S} x_i prod_{j in T} y_j], for ``mc_means``.

    S indexes the first half, T the second half, both 0-based in [0, N).
    The values equal ``gaussian_rows(gen, params, k)[:, cols].prod(axis=1)``
    for cols = S followed by N + T, bit for bit, but only what the product
    reads is computed.  Each row block draws the same (rows, N) uniforms as
    ``gaussian_rows``; with T empty only the S normals are made, and
    otherwise all N scaled normals and only the T columns of their
    transform (``fwht_columns``).  Blocks are about 1 MiB of full rows, so
    memory stays near one block.
    """
    s_idx = np.fromiter(s_set, dtype=np.int64)
    t_idx = np.fromiter(t_set, dtype=np.int64)
    for name, idx in (("S", s_idx), ("T", t_idx)):
        if idx.size and (idx.min() < 0 or idx.max() >= params.N):
            raise ValueError(f"{name} indices must lie in [0, {params.N})")
    scale = math.sqrt(params.eps)
    root_n = math.sqrt(params.N)

    def draw(gen, k):
        out = np.empty(k)
        for block in row_blocks(k, params.input_length):
            u = gen.random(size=(block.stop - block.start, params.N))
            if t_idx.size:
                first = _box_muller(u)
                np.multiply(first, scale, out=first)
                factors = np.concatenate(
                    [first[:, s_idx], fwht_columns(first, t_idx) / root_n],
                    axis=1)
            else:
                factors = scale * _box_muller(u, s_idx)
            out[block] = factors.prod(axis=1)
        return out
    return draw


def gaussian_moment(params: ForrParams, s_set: Iterable[int], t_set: Iterable[int],
                    samples: int, seed: int) -> Estimate:
    """Monte Carlo estimate of E[prod_{i in S} x_i prod_{j in T} y_j] under
    the coupled Gaussian, with a normal-approximation standard error.

    S indexes the first half, T the second half, both 0-based in [0, N).
    """
    return mc_mean(moment_draw(params, s_set, t_set), samples, seed)


class Label(str, enum.Enum):
    YES = "YES"
    NO = "NO"
    OUTSIDE_PROMISE = "OUTSIDE_PROMISE"


class InstanceMode(str, enum.Enum):
    PROMISE_YES = "promise_yes"
    PROMISE_NO = "promise_no"
    PLANTED_YES = "planted_yes"
    UNIFORM_NO = "uniform_no"


def classify(params: ForrParams, value: float) -> Label:
    """Promise label from a forrelation value: YES above eps/4, NO below
    eps/8, OUTSIDE_PROMISE in the gap."""
    if value >= params.eps / 4:
        return Label.YES
    if value <= params.eps / 8:
        return Label.NO
    return Label.OUTSIDE_PROMISE


@dataclass(frozen=True)
class LiftedInstance:
    """A labeled two-player input pair.

    ``attempts`` is the number of candidate pairs its generator drew (1
    unless rejection-sampled); it is not part of the JSON form or of
    equality.
    """

    N: int
    eps: float
    x: SignVector
    y: SignVector
    forr_value: float
    label: Label
    attempts: int = field(default=1, compare=False)

    def to_json(self) -> str:
        return json.dumps({
            "N": self.N,
            "eps": self.eps,
            "x": self.x.to_base64(),
            "y": self.y.to_base64(),
            "forr": self.forr_value,
            "label": self.label.value,
        })

    @classmethod
    def from_json(cls, text: str) -> "LiftedInstance":
        obj = json.loads(text)
        n = 2 * obj["N"]
        return cls(
            N=obj["N"],
            eps=obj["eps"],
            x=SignVector.from_base64(obj["x"], n),
            y=SignVector.from_base64(obj["y"], n),
            forr_value=obj["forr"],
            label=Label(obj["label"]),
        )


# The label a rejection-sampled mode accepts; other modes accept any draw.
_ACCEPTS = {InstanceMode.PROMISE_YES: Label.YES,
            InstanceMode.PROMISE_NO: Label.NO}


def instance_rows(params: ForrParams, modes: Sequence[InstanceMode | str],
                  seeds: Sequence[int], max_attempts: int = 10 ** 6,
                  strength: float = 1.0
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The instance generator: a block of k instances, instance i of mode
    ``modes[i]`` drawn from substream(``seeds[i]``, 0).

    Returns (x, y, forr_values, attempts): both players' (k, 2N) int8 sign
    rows, forr(x . y) per row, and how many candidate pairs each instance
    drew.  A candidate draws, in this order: planted_yes z1, the N flip
    uniforms and x, for y = x . (z1, sign(H z1) . flips) with ties of the
    sign going to +1 and each flip +1 with probability (1 + strength)/2;
    promise_yes z = ``forrelation_rows(gen, params, 1)`` and x, for
    y = x . z; the other modes x and y, both uniform.  Only the transforms
    are stacked, one ``fwht`` call for all planted candidates and one
    ``forr`` call per round; both treat each row as a one-row call would,
    so an instance is the same in any block.

    Rounds draw one candidate for every instance still pending (every
    instance in the first) and accept promise_yes candidates labeled YES,
    promise_no ones labeled NO, and all others.  A promise instance still
    pending after ``max_attempts`` rounds raises ``SamplingFailureError``.
    """
    modes = [InstanceMode(m) for m in modes]
    seeds = list(seeds)
    if len(seeds) != len(modes):
        raise ValueError(f"{len(modes)} modes need as many seeds, "
                         f"got {len(seeds)}")
    if not -1.0 <= strength <= 1.0:
        raise ValueError(f"strength must lie in [-1, 1], got {strength}")
    N = params.N
    gens = [substream(seed, 0) for seed in seeds]
    xs = np.empty((len(modes), 2 * N), dtype=np.int8)
    ys = np.empty_like(xs)
    values = np.empty(len(modes))
    attempts = np.zeros(len(modes), dtype=np.int64)
    pending = np.arange(len(modes))
    rounds = 0
    while pending.size:
        stuck = [modes[i] for i in pending if modes[i] in _ACCEPTS]
        if stuck and rounds >= max_attempts:
            raise SamplingFailureError(
                f"rejection sampling for mode {stuck[0].value} did not "
                f"accept", max_attempts)
        x = np.empty((pending.size, 2 * N), dtype=np.int8)
        y = np.empty_like(x)
        planted, z1, flips = [], [], []
        for j, i in enumerate(pending):
            gen, mode = gens[i], modes[i]
            if mode is InstanceMode.PLANTED_YES:
                planted.append(j)
                z1.append(uniform_sign_rows(gen, (N,)))
                flips.append(round_rows(gen, np.full((1, N), strength))[0])
                x[j] = uniform_sign_rows(gen, (2 * N,))
            elif mode is InstanceMode.PROMISE_YES:
                z = forrelation_rows(gen, params, 1)[0]
                x[j] = uniform_sign_rows(gen, (2 * N,))
                y[j] = x[j] * z
            else:
                x[j] = uniform_sign_rows(gen, (2 * N,))
                y[j] = uniform_sign_rows(gen, (2 * N,))
        if planted:
            z1 = np.array(z1)
            aligned = np.where(fwht(z1.astype(np.float64)) >= 0, 1, -1)
            z = np.concatenate([z1, aligned.astype(np.int8) * flips], axis=1)
            y[planted] = x[planted] * z
        value = forr((x * y).astype(np.float64))
        keep = np.array([
            _ACCEPTS.get(modes[i]) in (None, classify(params, float(v)))
            for i, v in zip(pending, value)], dtype=bool)
        attempts[pending] += 1
        done = pending[keep]
        xs[done], ys[done], values[done] = x[keep], y[keep], value[keep]
        pending = pending[~keep]
        rounds += 1
    return xs, ys, values, attempts


def _instances(params: ForrParams, xs: np.ndarray, ys: np.ndarray,
               values: np.ndarray, attempts: np.ndarray) -> list[LiftedInstance]:
    """Labeled instances from the rows and values of ``instance_rows``."""
    return [LiftedInstance(params.N, params.eps, SignVector(x), SignVector(y),
                           v, classify(params, v), a)
            for x, y, v, a in zip(xs, ys, values.tolist(), attempts.tolist())]


def planted_instance(params: ForrParams, strength: float,
                     seed: int) -> LiftedInstance:
    """Instance with tunable forrelation, roughly 0.8 * strength for
    strength in [-1, 1]: a planted block of one of ``instance_rows``.
    strength = 1 is the planted-yes generator."""
    return _instances(params, *instance_rows(
        params, [InstanceMode.PLANTED_YES], [seed], strength=strength))[0]


def generate_instance(params: ForrParams,
                      mode: InstanceMode | str | Sequence[InstanceMode | str],
                      seed: int | Sequence[int], max_attempts: int = 10 ** 6
                      ) -> LiftedInstance | list[LiftedInstance]:
    """Draw a labeled instance by mode, or a block of them.

    promise_yes rejection-samples lifted pairs until forr >= eps/4; promise_no
    rejection-samples uniform pairs until forr <= eps/8; planted_yes plants
    an aligned second half (ties resolved to +1) for forrelation near 0.8;
    uniform_no returns one uniform pair.  The label in the result is always
    recomputed from the pair.

    One mode and one seed return one ``LiftedInstance``, and sequences of
    k modes and k seeds k of them, from one ``instance_rows`` block whose
    rejection rounds ``max_attempts`` bounds.
    """
    single = isinstance(mode, str)  # an InstanceMode is a str
    block = instance_rows(params, [mode] if single else mode,
                          [seed] if single else seed, max_attempts)
    out = _instances(params, *block)
    return out[0] if single else out
