"""Counter-based random streams.

All randomness flows through Philox, a counter-based generator, and one
primitive addresses it: ``substream(seed, index)``, whose key carries the
seed and whose top counter words carry the index.  A run's child seeds come
from ``derive(seed, purpose, index)``, which keeps the run seed in key word
0 and puts a fixed purpose tag and the index in key word 1, so streams of
distinct (seed, purpose, index) triples never share a key.  Substreams never
collide as long as a single stream draws fewer than 2^192 blocks, and
results are independent of how work is scheduled across threads or chunks.

A draw that reads only bits of its words, or only compares each uniform
with a probability, reads the raw 64-bit words (``random_raw``) instead of
doubles.  ``Generator.random`` makes the uniform (w >> 11) 2^-53 of word w,
and ``uniform_below`` gives that uniform's ``u < p`` by one integer
comparison of w, so results and the generator's state after the draw are
those of the double draw, a pending 32-bit half included.

Monte Carlo estimates are built from fixed-size chunks: chunk i of an
experiment draws from substream(seed, i).  ``mc_means`` runs independent
chunks at the same time: the calling thread and up to ``WORKERS - 1``
started ``threading`` threads, one per usable core (numpy releases the
interpreter lock in its array loops), take chunks from one shared iterator,
and the calling thread adds the per-chunk sums in chunk order.
``threading`` is loaded when the interpreter starts, so the fan-out costs
no import, where ``concurrent.futures`` would load ``logging``.  A chunk's
draw returns either its values, which ``mc_means`` sums, or ``Sums`` for
several estimates at once, so that one draw of rows can serve many
statistics without holding all of their values.  ``mc_means`` is the one
estimator and the one sample floor: an estimate from fewer than
``MIN_SAMPLES`` samples is refused.  ``verify-moments`` passes it all of
its draws as the jobs of one call, and ``gaussian_moment`` and
``protocol.advantage`` (whose lifted pairs come from ``lifted_rows``) one
job each.  Within a chunk, draws may be taken in row blocks of about
``BLOCK_BYTES`` to bound memory; values are consumed row by row, so a block
sees the same stream values as an unblocked draw.  Where one draw reads two
runs of words, ``ahead`` opens a second reader at a word offset of the same
stream, so each block can take its words from both runs without holding the
whole draw.  No value depends on the number of threads or on the row
blocking; a draw that returns ``Sums`` adds its values block by block, so
those sums follow the fixed blocks of ``row_blocks``.

``BLOCK_BYTES`` is 512 KiB: the buffers a draw keeps for a block then fit
in a core's 2 MiB L2 cache, where 1 MiB blocks spilled out of it.  For the
sign sampler these are the block's coupled rows (a block) and its
rounding uniforms (a block), whose buffer first holds the block's normals
and their transform.  Smaller blocks pay more numpy call overhead per row
than they save.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import Callable, NamedTuple

import numpy as np

# Fixed chunk length for vectorized Monte Carlo loops.  Chunk i of an
# experiment uses substream(seed, i), so estimates do not depend on how many
# chunks run, or where.
CHUNK = 1 << 15

# Fewest samples an estimate may use: the normal-approximation standard
# error that every Monte Carlo verdict is gated on needs that many.
MIN_SAMPLES = 10_000

# Float64 bytes per row block when a chunk is drawn piecewise (512 KiB, sized
# as the module docstring says), which bounds a chunk's temporaries whatever
# its length.
BLOCK_BYTES = 1 << 19

# Threads that run Monte Carlo chunks: the cores this process may use.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# derive()'s tag per kind of stream, never 0 (key word 1 of any seed < 2^64).
PURPOSES = {"instance": 1, "copies": 2, "pick": 3, "moment": 4,
            "partition": 5, "indicators": 6, "advantage": 7, "sample": 8}
_INDEX_BITS = 56  # the tag takes the top byte of key word 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent stream addressed by (seed, index), each in [0, 2^128):
    the key and the top counter words hold 128 bits, so a value outside
    that range would alias one inside it and is refused."""
    if not 0 <= seed <= _MASK128:
        raise ValueError(f"substream seed must lie in [0, 2^128), got {seed}")
    if not 0 <= index <= _MASK128:
        raise ValueError(
            f"substream index must lie in [0, 2^128), got {index}")
    key = np.array([seed & _MASK64, (seed >> 64) & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, index & _MASK64, (index >> 64) & _MASK64],
                       dtype=np.uint64)
    bits = np.random.Philox(_no_seed())
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": counter, "key": key},
                  "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


@functools.cache
def _no_seed():
    """A seed sequence for Philox bit generators whose state is set right
    after they are built.  ``Philox(key=key, counter=counter)`` gives the
    same state, but first seeds a seed sequence from OS entropy that no
    stream here uses, about a third of the cost of a substream.  Made on
    first use, so importing forrlab does not load ``numpy.random``."""
    class NoSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)
    return NoSeed()


def ahead(gen: np.random.Generator, words: int) -> np.random.Generator:
    """A new generator on a copy of ``gen``'s Philox stream, ``words``
    64-bit words further on; ``gen`` itself is not moved.

    Drawing from the copy gives what ``gen`` would give after ``words``
    doubles of ``gen.random()``, a pending 32-bit half included.  Words still
    in the 4-word output buffer are skipped by drawing them; beyond those,
    whole blocks go by ``Philox.advance`` and the last few words by drawing.
    """
    if not isinstance(gen.bit_generator, np.random.Philox):
        raise ValueError("ahead needs a Philox-backed generator, got "
                         f"{type(gen.bit_generator).__name__}")
    if words < 0:
        raise ValueError(f"words must be nonnegative, got {words}")
    state = gen.bit_generator.state
    bits = np.random.Philox(_no_seed())
    out = np.random.Generator(bits)
    left = 4 - state["buffer_pos"]
    if words < left:
        bits.state = state
        out.random(words)
        return out
    bits.state = {**state, "buffer_pos": 4}
    blocks, rest = divmod(words - left, 4)
    bits.advance(blocks)  # clears the pending 32-bit half
    out.random(rest)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}
    return out


def derive(seed: int, purpose: str, index: int) -> int:
    """Seed of stream ``index`` of kind ``purpose`` in a run at ``seed``:
    the seed in key word 0, the purpose tag and the index in key word 1, so
    at least 2^120 and never a seed below 2^64."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    if not 0 <= index < 1 << _INDEX_BITS:
        raise ValueError(
            f"stream index must lie in [0, 2^{_INDEX_BITS}), got {index}")
    return seed | (PURPOSES[purpose] << _INDEX_BITS | index) << 64


def chunk_sizes(total: int) -> list[int]:
    """Split ``total`` draws into ``CHUNK``-size chunks (last one ragged)."""
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    full, rest = divmod(total, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def uniform_below(words: np.ndarray, p,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Whether the uniform u = (w >> 11) 2^-53 that ``Generator.random``
    makes of each raw 64-bit word w falls below ``p``: ``u < p``, without
    making the doubles.  Since w >> 11 is an integer and p 2^53 is exact,
    u < p exactly when w < ceil(p 2^53) << 11.

    ``p`` is a float, or an array of one value per row of a 2-D
    ``words``.  As with ``u < p``, p >= 1 gives all True and p <= 0 or NaN
    all False.  The result is written to ``out`` if given, else to a new
    bool array."""
    if not isinstance(p, np.ndarray):
        p = float(p)
        if p >= 1.0:
            return np.less_equal(words, _MASK64, out=out)
        return np.less(words, math.ceil(p * 2.0 ** 53) << 11 if p > 0.0 else 0,
                       out=out)
    p = p.astype(np.float64, copy=False)[:, None]
    # Rows with p outside (0, 1), NaN included, get limit 0 (all False);
    # those with p >= 1 are then set.
    steps = np.ceil(np.where((p > 0.0) & (p < 1.0), p, 0.0) * 2.0 ** 53)
    below = np.less(words, steps.astype(np.uint64) << 11, out=out)
    full = p >= 1.0
    return np.logical_or(below, full, out=below) if full.any() else below


def bernoulli_bits(gen: np.random.Generator, p: float,
                   count: int) -> np.ndarray:
    """``count`` uint8 bits, bit t 1 when uniform t of ``gen`` falls below
    ``p``: those of ``gen.uniform(size=count) < p``, read from the raw
    words by ``uniform_below`` ``CHUNK`` at a time, so memory stays near
    one byte per bit.  ``gen`` ends where ``gen.uniform`` would leave it."""
    bits = np.empty(count, dtype=np.uint8)
    raw = gen.bit_generator.random_raw
    for start in range(0, count, CHUNK):
        out = bits[start:start + CHUNK]
        uniform_below(raw(out.size), p, out=out)
    return bits


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices covering ``rows`` rows of ``width`` float64 values,
    each about ``BLOCK_BYTES`` (at least one row)."""
    step = max(1, BLOCK_BYTES // (8 * max(width, 1)))
    return [slice(start, min(start + step, rows))
            for start in range(0, rows, step)]


class Estimate(NamedTuple):
    """A Monte Carlo mean with its normal-approximation standard error."""

    estimate: float
    standard_error: float


class Sums(NamedTuple):
    """What a draw that makes several estimates returns for one chunk: per
    estimate, the sum of its values and the sum of their squares."""

    total: list[float]
    squares: list[float]


def fan_out(tasks: int) -> int:
    """Threads ``mc_means`` runs ``tasks`` chunks on, the calling thread
    included: one per task, at most ``WORKERS``, at least one."""
    return max(1, min(WORKERS, tasks))


def mc_means(jobs: list[tuple[Callable[[np.random.Generator, int],
                                       np.ndarray | Sums], int]],
             samples: int) -> list[Estimate]:
    """Mean and standard error of ``samples`` values for each (draw, seed)
    job, where chunk i of the fixed chunking calls ``draw(substream(seed,
    i), k)`` for its k values.

    A draw returns either those k values, for one estimate, or ``Sums``
    that it reduced itself, for one estimate per entry; the estimates come
    back flat, in job order.  The calling thread and ``fan_out(tasks) - 1``
    started threads take the (job, chunk) tasks from one shared iterator and
    store each chunk's sums and sums of squares under its task index, so a
    draw must not share mutable state between calls.  On the first error,
    or an interrupt, every thread stops before its next chunk; the threads
    are joined and that first error is raised.  The calling thread then
    adds the sums per estimate in chunk order, so every estimate is a pure
    function of (draw, samples, seed).
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"Monte Carlo estimation needs at least {MIN_SAMPLES} "
                         f"samples, got {samples}")
    sizes = chunk_sizes(samples)
    tasks = [(draw, seed, i) for draw, seed in jobs for i in range(len(sizes))]
    sums: list[list[tuple[float, float]]] = [[]] * len(tasks)
    todo = iter(range(len(tasks)))
    take = threading.Lock()
    stop = threading.Event()
    errors: list[BaseException] = []

    def work():
        while not stop.is_set():
            with take:
                t = next(todo, None)
            if t is None:
                return
            draw, seed, i = tasks[t]
            try:
                vals = draw(substream(seed, i), sizes[i])
                sums[t] = (list(zip(vals.total, vals.squares))
                           if isinstance(vals, Sums) else
                           [(float(vals.sum()), float(np.square(vals).sum()))])
            except BaseException as exc:  # an interrupt stops the others too
                errors.append(exc)
                stop.set()
                return

    threads = [threading.Thread(target=work)
               for _ in range(fan_out(len(tasks)) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:  # all tasks are taken, or none may start: let the others end
        stop.set()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    out = []
    for j in range(len(jobs)):
        chunks = sums[j * len(sizes):(j + 1) * len(sizes)]
        for pairs in zip(*chunks):  # one estimate's sums, in chunk order
            total = total_sq = 0.0
            for s, sq in pairs:
                total += s
                total_sq += sq
            mean = total / samples
            var = max(total_sq / samples - mean * mean, 0.0)
            out.append(Estimate(mean, math.sqrt(var / samples)))
    return out
