"""Counter-based random streams.

All randomness flows through Philox, a counter-based generator, and one
primitive addresses it: ``substream(seed, index)``, whose key carries the
seed and whose top counter words carry the index.  A run's child seeds come
from ``derive(seed, purpose, index)``, which keeps the run seed in key word
0 and puts a fixed purpose tag and the index in key word 1, so streams of
distinct (seed, purpose, index) triples never share a key.  Substreams never
collide as long as a single stream draws fewer than 2^192 blocks, and
results are independent of how work is scheduled across threads or chunks.

Monte Carlo estimates are built from fixed-size chunks: chunk i of an
experiment draws from substream(seed, i).  ``mc_means`` runs independent
chunks at the same time on a thread pool sized to the usable cores (numpy
releases the interpreter lock in its array loops) and adds the per-chunk sums
in chunk order on the calling thread.  It is the one sample floor: an
estimate from fewer than ``MIN_SAMPLES`` samples is refused.  Within a
chunk, draws may be taken in row blocks of about ``BLOCK_BYTES`` to bound
memory; uniforms are consumed row by row, so a block sees the same stream
values as an unblocked draw.  No result depends on the pool size or on the
row blocking.
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

# Fewest samples an estimate may use: the normal-approximation standard
# error that every Monte Carlo verdict is gated on needs that many.
MIN_SAMPLES = 10_000

# Float64 bytes per row block when a chunk is drawn piecewise (about 1 MiB),
# which bounds a chunk's temporaries whatever its length.
BLOCK_BYTES = 1 << 20

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
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


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
    if samples < MIN_SAMPLES:
        raise ValueError(f"Monte Carlo estimation needs at least {MIN_SAMPLES} "
                         f"samples, got {samples}")
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
