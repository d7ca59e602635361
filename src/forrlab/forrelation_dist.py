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
from typing import Iterable, Sequence

import numpy as np

from ._bits import is_power_of_two
from ._record import Record
from ._rng import (BLOCK_BYTES, Estimate, Sums, ahead, chunk_sizes, mc_means,
                   row_blocks, substream, uniform_below)
from .boolean_fourier import SignVector, fwht, fwht_inplace
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
    "lifted_rows",
    "chunked",
    "moment_products",
    "moment_sums",
    "gaussian_moment",
    "Label",
    "InstanceMode",
    "LiftedInstance",
    "classify",
    "instance_rows",
    "generate_instance",
    "planted_instance",
]


class ForrParams(Record):
    """Problem size N (a power of two) and the derived coupling eps.

    eps is always 1/(50 ln N); pass ``eps_override`` only for exploratory
    runs in the amplified regime.
    """

    __slots__ = _compare = ("N", "eps_override")

    def __init__(self, N: int, eps_override: float | None = None):
        if N < 4 or not is_power_of_two(N):
            raise ValueError(f"N must be a power of two >= 4, got {N}")
        if eps_override is not None and not 0 < eps_override <= 1:
            raise ValueError(f"eps override must lie in (0, 1], got {eps_override}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "eps_override", eps_override)

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
    land in [-1, 1] by Cauchy-Schwarz.  Rows of any dtype are scored in
    float64 one ``row_blocks`` block at a time: a block's first half is cast
    into an (N, rows) buffer, transformed there in place
    (``fwht_inplace``) and multiplied by the second half, and each row's
    products are summed from a C-contiguous (rows, N) copy, as
    ``sum(axis=1)`` of a one-row call sums them.  So the buffers stay near
    one block, and each row has the bits of a one-row call.
    """
    z = np.asarray(z)
    N = _check_pair_length(z.shape[-1])
    rows = z.reshape(-1, 2 * N)
    out = np.empty(len(rows))
    blocks = row_blocks(len(rows), 2 * N)
    tables, products = (_buffer(blocks, N) for _ in range(2))
    for block in blocks:
        part = rows[block]
        table = tables[:len(part)].reshape(N, -1)
        np.copyto(table, part[:, :N].T)
        fwht_inplace(table)
        np.multiply(table, part[:, N:].T, out=table)
        product = products[:len(part)]
        np.copyto(product, table.T)
        out[block] = product.sum(axis=1)
    out = out.reshape(z.shape[:-1]) / (N * math.sqrt(N))
    return float(out) if out.ndim == 0 else out


def truncate(v: np.ndarray) -> np.ndarray:
    """Clamp every coordinate to [-1, 1]; idempotent."""
    return np.clip(np.asarray(v, dtype=np.float64), -1.0, 1.0)


def _buffer(blocks: list[slice], *shape: int) -> np.ndarray:
    """An empty float64 buffer for the rows of the largest (the first) of
    ``blocks``, each row of ``shape``."""
    return np.empty((blocks[0].stop if blocks else 0, *shape))


def standard_normal_rows(gen: np.random.Generator, k: int, n: int) -> np.ndarray:
    """(k, n) standard normals from ``gen``, ``gen.standard_normal((k, n))``:
    the reference that the samplers' row-block draws are tested against.

    The normals are numpy's ziggurat draws.  They use only integer and
    table arithmetic, with a scalar C-library exp or log1p in the rare
    rejection branches, so their bits do not depend on which SIMD kernels
    numpy picks for the CPU, and they are read row by row, so a row block
    drawn alone gets the rows of one whole draw.
    """
    return gen.standard_normal((k, n))


def gaussian_rows(gen: np.random.Generator, params: ForrParams, k: int) -> np.ndarray:
    """k coupled-Gaussian rows of length 2N, drawn from ``gen`` in one piece.

    The reference for the blocked samplers (``forrelation_rows``,
    ``moment_products``), which build each row block as this builds its k
    rows; a caller that must bound its memory, as ``sample-dist --dist
    gaussian`` does, asks for one ``row_blocks`` block at a time.
    """
    out = np.empty((k, params.input_length))
    _coupled(params, gen.standard_normal((k, params.N)), out)
    return out


def _coupled(params: ForrParams, normals: np.ndarray, out: np.ndarray) -> None:
    """Write the coupled-Gaussian rows of the (rows, N) standard normals
    ``normals`` into the (rows, 2N) float64 ``out``.

    The normals are scaled into the first half.  Their buffer, spent, then
    takes the first half transposed, as an (N, rows) table whose transform
    runs in place (``fwht_inplace``) with the bits of ``fwht``, and the
    transform divided by sqrt(N) goes straight into the second half.
    """
    N = params.N
    first = out[:, :N]
    np.multiply(normals, math.sqrt(params.eps), out=first)
    table = normals.reshape(N, -1)
    np.copyto(table, first.T)
    fwht_inplace(table)
    np.divide(table.T, math.sqrt(N), out=out[:, N:])


def _round(rows: np.ndarray, uniforms: np.ndarray, out: np.ndarray,
           probs: np.ndarray) -> None:
    """Round ``rows`` into the int8 signs ``out``: +1 where ``uniforms``
    fall below (1 + truncate(rows)) / 2, else -1.  ``probs`` is a float64
    buffer of the shape of ``rows``, and may be ``rows`` itself."""
    np.clip(rows, -1.0, 1.0, out=probs)
    np.add(probs, 1.0, out=probs)
    np.divide(probs, 2.0, out=probs)
    np.less(uniforms, probs, out=out.view(np.bool_))
    out *= 2
    out -= 1


def round_rows(gen: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Round truncated rows to signs, independently per coordinate, with
    conditional mean equal to the truncated value.

    One draw of ``gen.random(rows.shape)`` gives the uniforms, the doubles
    of ``gen.uniform(size=rows.shape)`` without uniform's scaling pass, and
    one ``_round`` pass rounds every row: the reference for the rounding
    that ``forrelation_rows`` does block by block.
    """
    rows = np.asarray(rows)
    out = np.empty(rows.shape, dtype=np.int8)
    _round(rows, gen.random(rows.shape), out, np.empty(rows.shape))
    return out


def forrelation_rows(gen: np.random.Generator, params: ForrParams,
                     k: int) -> np.ndarray:
    """k forrelation-distributed sign rows of length 2N, drawn from ``gen``.

    The rounding uniforms come first: words [0, 2Nk) of ``gen``, row r's 2N
    from word 2Nr.  The Gaussians come after them, from a reader opened 2Nk
    words ahead (``ahead``), since a ziggurat normal reads a varying number
    of words.  So the rows are ``round_rows(gen, gaussian_rows(gaussians,
    params, k))`` for ``gaussians = ahead(gen, 2Nk)``, bit for bit, and
    ``gen`` then takes that reader's place, so successive draws never share
    words.  Each row block of ``row_blocks(k, 2N)`` is drawn, transformed
    and rounded before the next block starts: its coupled-Gaussian rows are
    made in one (rows, 2N) buffer, as ``gaussian_rows`` makes them, and
    rounded there in one pass against the block's contiguous uniforms.  The
    block's normals, and then their transform, use the uniforms' buffer
    before the uniforms do, so two block buffers serve every block and
    memory stays near a few blocks besides the int8 output.
    """
    gaussians = ahead(gen, 2 * params.N * k)
    out = np.empty((k, params.input_length), dtype=np.int8)
    blocks = row_blocks(k, params.input_length)
    rows, uniforms = (_buffer(blocks, params.input_length) for _ in range(2))
    for block in blocks:
        size = block.stop - block.start
        normals = uniforms.reshape(-1)[:size * params.N].reshape(size, -1)
        gaussians.standard_normal(out=normals)
        _coupled(params, normals, rows[:size])
        gen.random(out=uniforms[:size])
        _round(rows[:size], uniforms[:size], out[block], rows[:size])
    gen.bit_generator.state = gaussians.bit_generator.state
    return out


def uniform_sign_rows(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform +-1 entries of the given shape, drawn from ``gen``."""
    signs = gen.integers(0, 2, size=shape, dtype=np.int8)
    signs *= -2
    signs += 1
    return signs


def lifted_rows(gen: np.random.Generator, params: ForrParams,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lifted input pairs (x, y) drawn from ``gen``: forrelation rows z,
    then uniform rows x, and y = x . z.  The one lifted sampler: promise_yes
    instances and ``protocol.advantage`` draw their pairs through it."""
    z = forrelation_rows(gen, params, k)
    x = uniform_sign_rows(gen, z.shape)
    return x, x * z


def chunked(seed: int, samples: int, draw):
    """Run ``draw(gen, k)`` over fixed-size chunks with per-chunk substreams
    and join the results along the first axis.

    Chunk i always uses substream(seed, i), so the result is a pure function
    of (seed, samples) no matter how chunks are scheduled.  A draw that
    reduces its rows, such as to their forrelation, keeps only the reduced
    values of earlier chunks.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    parts = [draw(substream(seed, i), k)
             for i, k in enumerate(chunk_sizes(samples))]
    return np.concatenate(parts, axis=0)


def moment_products(params: ForrParams,
                    sets: Sequence[tuple[Iterable[int], Iterable[int]]]):
    """The row products of many moments from one Gaussian draw: a function
    ``(gen, k) -> iterator of (block, members, products)``.

    Set m = (S, T) has the products prod_{i in S} x_i prod_{j in T} y_j of k
    coupled-Gaussian rows drawn from ``gen``; S indexes the first half, T
    the second half, both 0-based in [0, N).  For each row block of
    ``row_blocks(k, 2N)`` in order, the iterator yields the sets in groups
    of one degree |S| + |T|: ``products`` is a (len(members), rows) array
    whose row r holds the products of set ``members[r]``, each equal to
    ``gaussian_rows(gen, params, k)[block, cols].prod(axis=1)`` for cols = S
    followed by N + T, bit for bit.  Every set appears once per block.

    Each row block draws its rows' N normals of ``gaussian_rows`` into one
    block buffer and scales them into the first N rows of a column buffer,
    so that every factor is a contiguous row of it.  If any set reads the second half, the buffer
    has N more rows: the first N are copied there, transformed in place
    (``fwht_inplace``) and divided by sqrt(N), so T index t is buffer row
    N + t.  Otherwise nothing is transformed.  A group's products take
    one gather of the buffer per factor position: the first factors are
    copied, and each later position's factors are gathered and multiplied
    in, in the order ``prod`` takes them.  A group is split so that its
    products and one gathered factor stay within one ``BLOCK_BYTES`` block.
    The products buffer is reused for every group and block, so a consumer
    may overwrite ``products``, and must reduce or copy it before taking
    the next item.  Each call makes its own block buffers, so memory stays
    within a few blocks whatever the number of sets, and calls may run on
    several threads at once.
    """
    columns = []
    for s_set, t_set in sets:
        s_idx = np.fromiter(s_set, dtype=np.int64)
        t_idx = np.fromiter(t_set, dtype=np.int64)
        for name, idx in (("S", s_idx), ("T", t_idx)):
            if idx.size and (idx.min() < 0 or idx.max() >= params.N):
                raise ValueError(f"{name} indices must lie in [0, {params.N})")
        columns.append((s_idx.tolist(), t_idx.tolist()))
    width = params.N if any(t_idx for _, t_idx in columns) else 0
    # Each set's factors as buffer rows, in the order prod takes them, and
    # one (members, factor rows) table per degree, in degree order.
    factors = [s_idx + [params.N + t for t in t_idx] for s_idx, t_idx in columns]
    by_degree: dict[int, list[int]] = {}
    for m, rows in enumerate(factors):
        by_degree.setdefault(len(rows), []).append(m)
    groups = [(members, np.array([factors[m] for m in members], dtype=np.intp))
              for _, members in sorted(by_degree.items())]
    scale = math.sqrt(params.eps)
    root_n = math.sqrt(params.N)

    def products(gen, k):
        blocks = row_blocks(k, params.input_length)
        normals_buffer = _buffer(blocks, params.N)
        most = len(normals_buffer)
        # Sets per gather: a group's products and one gathered factor of
        # them fill at most one block together.
        per = max(1, BLOCK_BYTES // (16 * max(most, 1)))
        size = min(per, max((len(g) for g, _ in groups), default=0)) * most
        cols_buffer = np.empty((params.N + width) * most)
        product_buffer = np.empty(size)
        factor_buffer = np.empty(size)
        for block in blocks:
            rows = block.stop - block.start
            normals = normals_buffer[:rows]
            gen.standard_normal(out=normals)
            cols = cols_buffer[:(params.N + width) * rows].reshape(-1, rows)
            x, y = cols[:params.N], cols[params.N:]
            np.multiply(normals.T, scale, out=x)
            if width:
                np.copyto(y, x)
                fwht_inplace(y)
                y /= root_n
            for members, table in groups:
                for start in range(0, len(members), per):
                    idx = table[start:start + per]
                    count = len(idx) * rows
                    product = product_buffer[:count].reshape(-1, rows)
                    if not idx.shape[1]:
                        product.fill(1.0)
                    else:  # 1 times the first factor is that factor
                        # mode="clip": the rows are in range, and the
                        # default mode gathers into a temporary first.
                        np.take(cols, idx[:, 0], axis=0, out=product,
                                mode="clip")
                    factor = factor_buffer[:count].reshape(-1, rows)
                    for j in range(1, idx.shape[1]):
                        np.take(cols, idx[:, j], axis=0, out=factor,
                                mode="clip")
                        np.multiply(product, factor, out=product)
                    yield block, members[start:start + per], product
    return products


def moment_sums(params: ForrParams,
                sets: Sequence[tuple[Iterable[int], Iterable[int]]]):
    """The draw ``(gen, k) -> Sums`` that estimates every moment of
    ``sets`` from one Gaussian draw, for ``mc_means``: per set, the sum of
    its k ``moment_products`` and the sum of their squares.

    Each group's products are reduced as they are made, by
    ``products.sum(axis=1)`` and ``np.square(products).sum(axis=1)``, whose
    entries equal each set's ``row.sum()`` and ``np.square(row).sum()`` bit
    for bit; the block sums are added in block order.  So no (sets, k)
    array is held.  A set's estimate is the mean of k i.i.d. products, but
    the sets share their rows, so their estimates are dependent, and a set
    given twice gets the same estimate twice.
    """
    products = moment_products(params, sets)
    count = len(sets)

    def draw(gen, k):
        total, squares = [0.0] * count, [0.0] * count
        for _, members, product in products(gen, k):
            sums = product.sum(axis=1).tolist()
            sums_sq = np.square(product, out=product).sum(axis=1).tolist()
            for m, s, sq in zip(members, sums, sums_sq):
                total[m] += s
                squares[m] += sq
        return Sums(total, squares)
    return draw


def gaussian_moment(params: ForrParams, s_set: Iterable[int], t_set: Iterable[int],
                    samples: int, seed: int) -> Estimate:
    """Monte Carlo estimate of E[prod_{i in S} x_i prod_{j in T} y_j] under
    the coupled Gaussian, with a normal-approximation standard error.

    S indexes the first half, T the second half, both 0-based in [0, N).
    It is the one-set case of the engine behind ``verify-moments``: one
    ``moment_sums`` job for ``mc_means``.
    """
    return mc_means([(moment_sums(params, [(s_set, t_set)]), seed)],
                    samples)[0]


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


class LiftedInstance(Record):
    """A labeled two-player input pair.

    ``attempts`` is the number of candidate pairs its generator drew (1
    unless rejection-sampled); it is not part of the JSON form or of
    equality.
    """

    __slots__ = ("N", "eps", "x", "y", "forr_value", "label", "attempts")
    _compare = __slots__[:-1]

    def __init__(self, N: int, eps: float, x: SignVector, y: SignVector,
                 forr_value: float, label: Label, attempts: int = 1):
        for name, value in zip(self.__slots__, (N, eps, x, y, forr_value,
                                                label, attempts)):
            object.__setattr__(self, name, value)

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
    promise_yes the pair (x, x . z) of ``lifted_rows(gen, params, 1)``, z
    first; the other modes x and y, both uniform.  Only the transforms
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
    # A flip is +1 when its uniform falls below this: the draw and compare
    # of round_rows on a constant row of strength, without the row, read
    # from the uniforms' raw words.
    keep_sign = (1.0 + strength) / 2.0
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
                flips.append(uniform_below(gen.bit_generator.random_raw(N),
                                           keep_sign))
                x[j] = uniform_sign_rows(gen, (2 * N,))
            elif mode is InstanceMode.PROMISE_YES:
                x[j:j + 1], y[j:j + 1] = lifted_rows(gen, params, 1)
            else:
                x[j] = uniform_sign_rows(gen, (2 * N,))
                y[j] = uniform_sign_rows(gen, (2 * N,))
        if planted:
            z1 = np.array(z1)
            aligned = np.where(fwht(z1.astype(np.float64)) >= 0, 1, -1
                               ).astype(np.int8)
            z = np.concatenate([z1, np.where(flips, aligned, -aligned)],
                               axis=1)
            y[planted] = x[planted] * z
        value = forr(x * y)
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
