"""Counter-based random streams.

All randomness flows through Philox, a counter-based generator, so any
consumer can be handed a substream addressed by (seed, index) without
coordination: the key carries the experiment seed and the top counter word
carries the index.  Substreams never collide as long as a single stream
draws fewer than 2^192 blocks, and results are independent of how work is
scheduled across threads or chunks.

Monte Carlo estimates are built from fixed-size chunks: chunk i of an
experiment draws from substream(seed, i).  ``mc_means`` runs independent
chunks at the same time on a thread pool sized to the usable cores (numpy
releases the interpreter lock in its array loops) and adds the per-chunk sums
in chunk order on the calling thread.  Within a chunk, draws may be taken in
row blocks of about ``BLOCK_BYTES`` to bound memory; uniforms are consumed
row by row, so a block sees the same stream values as an unblocked draw.  No
result depends on the pool size or on the row blocking.
"""

from __future__ import annotations

import math
import os
from typing import Callable, NamedTuple

import numpy as np

# Fixed chunk length for vectorized Monte Carlo loops.  Chunk i of an
# experiment uses substream(seed, i), so estimates do not depend on how many
# chunks run, or where.
CHUNK = 1 << 15

# Float64 bytes per row block when a chunk is drawn piecewise (about 1 MiB),
# which bounds a chunk's temporaries whatever its length.
BLOCK_BYTES = 1 << 20

# Threads that run Monte Carlo chunks: the cores this process may use.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent stream addressed by (seed, index)."""
    if index < 0:
        raise ValueError(f"substream index must be nonnegative, got {index}")
    key = np.array([seed & _MASK64, (seed >> 64) & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, index & _MASK64, (index >> 64) & _MASK64],
                       dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b, built from
    32-bit halves so every partial product fits in uint64."""
    a_lo, a_hi = a & _MASK32, a >> _SHIFT32
    b_lo, b_hi = b & _MASK32, b >> _SHIFT32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    cross = (ll >> _SHIFT32) + (lh & _MASK32) + a_hi * b_lo
    hi = a_hi * b_hi + (lh >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, a * b


def first_uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """``substream(seed, t).uniform()`` for t = start .. start+count-1, bit
    for bit.

    A fresh numpy Philox bumps counter word 0 before its first block, so
    the first uniform of substream (seed, t) is word 0 of the Philox4x64-10
    block of counter (1, 0, t, 0) under the seed's key, scaled as numpy
    scales a double: top 53 bits times 2^-53.  All counters run through the
    ten rounds at once, so callers bound memory (about 100 bytes per
    counter) by drawing in blocks of ``CHUNK``.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if start < 0 or start + count > _MASK64 + 1:
        raise ValueError(f"indices {start}..{start + count} leave [0, 2^64)")
    k0, k1 = seed & _MASK64, (seed >> 64) & _MASK64
    c0 = np.ones(count, dtype=np.uint64)
    c1 = np.zeros(count, dtype=np.uint64)
    c2 = np.arange(start, start + count, dtype=np.uint64)
    c3 = np.zeros(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0 = (k0 + _PHILOX_W0) & _MASK64
                k1 = (k1 + _PHILOX_W1) & _MASK64
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = (hi1 ^ c1 ^ np.uint64(k0), lo1,
                              hi0 ^ c3 ^ np.uint64(k1), lo0)
    return (c0 >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def chunk_sizes(total: int, chunk: int = CHUNK) -> list[int]:
    """Split ``total`` draws into fixed-size chunks (last one ragged)."""
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    full, rest = divmod(total, chunk)
    return [chunk] * full + ([rest] if rest else [])


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


def mc_means(jobs: list[tuple[Callable[[np.random.Generator, int], np.ndarray],
                              int]],
             samples: int) -> list[Estimate]:
    """Mean and standard error of ``samples`` values for each (draw, seed)
    job, where chunk i of the fixed chunking contributes
    ``draw(substream(seed, i), k)``, k values.

    Every (job, chunk) pair runs on one pool of ``WORKERS`` threads, so a draw
    must not share mutable state between calls.  Each chunk returns its sum
    and sum of squares, and the calling thread adds them per job in chunk
    order, so every estimate is a pure function of (draw, samples, seed).
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    # Imported here: concurrent.futures loads logging, which would otherwise
    # add to the import time of every forrlab process.
    from concurrent.futures import ThreadPoolExecutor

    sizes = chunk_sizes(samples)

    def run(task):
        draw, seed, i = task
        vals = draw(substream(seed, i), sizes[i])
        return float(vals.sum()), float(np.square(vals).sum())

    tasks = [(draw, seed, i) for draw, seed in jobs for i in range(len(sizes))]
    pool = ThreadPoolExecutor(max(1, min(WORKERS, len(tasks))))
    try:
        sums = list(pool.map(run, tasks))
    finally:  # on an error or an interrupt, drop the chunks not yet started
        pool.shutdown(cancel_futures=True)
    out = []
    for j in range(len(jobs)):
        total = total_sq = 0.0
        for s, sq in sums[j * len(sizes):(j + 1) * len(sizes)]:
            total += s
            total_sq += sq
        mean = total / samples
        var = max(total_sq / samples - mean * mean, 0.0)
        out.append(Estimate(mean, math.sqrt(var / samples)))
    return out


def mc_mean(draw: Callable[[np.random.Generator, int], np.ndarray],
            samples: int, seed: int) -> Estimate:
    """``mc_means`` for one job: the estimate of ``draw`` at ``seed``."""
    return mc_means([(draw, seed)], samples)[0]
