"""Bit-level helpers shared across modules.

One encoding is used everywhere: bit value 0 <-> sign +1, bit value 1 <-> sign -1.
A point of {-1,1}^n is addressed by the integer whose i-th bit encodes
coordinate i (0-based), so index arithmetic lines up with the FWHT butterfly
and with basis-state indices of the simulator.

The one wire format is the instance format: a sign vector packed into
little-endian bits (bit 1 <-> sign -1) and base64-encoded, as
``LiftedInstance.to_json`` writes it for ``gen-instances``.
"""

from __future__ import annotations

import base64

import numpy as np


def signs_to_bits(signs: np.ndarray) -> np.ndarray:
    """Map {-1,+1} entries to {1,0} bits (last axis preserved)."""
    signs = np.asarray(signs)
    return ((1 - signs) // 2).astype(np.uint8)


def bits_to_signs(bits: np.ndarray) -> np.ndarray:
    """Map {0,1} bits to {+1,-1} signs as int8."""
    bits = np.asarray(bits, dtype=np.int8)
    return (1 - 2 * bits).astype(np.int8)


def signs_to_codes(signs: np.ndarray) -> np.ndarray:
    """Encode sign rows (..., n) as integer point codes; bit i <-> coordinate i."""
    bits = signs_to_bits(signs).astype(np.uint64)
    n = bits.shape[-1]
    weights = (np.uint64(1) << np.arange(n, dtype=np.uint64))
    return (bits * weights).sum(axis=-1).astype(np.int64)


def codes_to_signs(codes: np.ndarray, n: int) -> np.ndarray:
    """Decode integer point codes (...) into sign rows (..., n)."""
    codes = np.asarray(codes, dtype=np.uint64)
    shifts = np.arange(n, dtype=np.uint64)
    bits = (codes[..., None] >> shifts) & np.uint64(1)
    return bits_to_signs(bits)


def signs_to_base64(signs: np.ndarray) -> str:
    """Pack a sign vector into little-endian bits (bit 1 <-> sign -1), then
    base64: the wire form of instance inputs."""
    packed = np.packbits(signs_to_bits(signs), bitorder="little")
    return base64.b64encode(packed.tobytes()).decode("ascii")


def base64_to_signs(text: str, n: int) -> np.ndarray:
    """Inverse of :func:`signs_to_base64`; an int8 array of length ``n``."""
    bits = np.unpackbits(np.frombuffer(base64.b64decode(text), dtype=np.uint8),
                         count=n, bitorder="little")
    return bits_to_signs(bits)


def popcount(values: np.ndarray) -> np.ndarray:
    """Number of set bits, elementwise."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint64)).astype(np.int64)


def parity(values: np.ndarray) -> np.ndarray:
    """Bit parity: popcount mod 2."""
    return popcount(values) & 1


def f2_inner_sign(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """(-1)^{<i,j>} with <i,j> the F2 inner product of the binary indices."""
    return 1 - 2 * parity(np.bitwise_and(np.asarray(i, dtype=np.uint64),
                                         np.asarray(j, dtype=np.uint64)))


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0
