"""64-bit integer mixing primitives shared by seed derivation and hashing."""

from __future__ import annotations

import numpy as np

UINT64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT32 = np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)


def mix64(x) -> np.ndarray | np.uint64:
    """Avalanche a 64-bit value or array of values.

    A bijective finalizer (splitmix64 style) preceded by a golden-ratio
    increment so that 0 does not map to 0. All arithmetic wraps mod 2**64,
    in arrays only: numpy warns of a wrap in scalar arithmetic.
    """
    scalar = np.ndim(x) == 0
    z = np.atleast_1d(np.asarray(x, dtype=np.uint64))
    z = z + _PHI
    z = (z ^ (z >> _SHIFT30)) * _MIX1
    z = (z ^ (z >> _SHIFT27)) * _MIX2
    z = z ^ (z >> _SHIFT31)
    return z[0] if scalar else z


def seed_stream(master_seed: int, count: int, tag: int = 0) -> np.ndarray:
    """Derive ``count`` 64-bit seeds from (master_seed, tag) in counter mode.

    Deterministic, and distinct streams for distinct tags. Seeds within a
    stream are pairwise distinct with overwhelming probability.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    base = mix64(np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) ^ mix64(np.uint64(tag)))
    ctr = np.arange(1, count + 1, dtype=np.uint64)
    return mix64(base + ctr * _PHI)


def range_map(h: np.ndarray, n: int) -> np.ndarray:
    """Map full-range 64-bit hashes onto [0, n) as floor(h * n / 2**64).

    Avoids modulo bias. Requires n < 2**32.
    """
    n64 = np.uint64(n)
    hi = h >> _SHIFT32
    lo = h & _LOW32
    carry = (lo * n64) >> _SHIFT32
    return (hi * n64 + carry) >> _SHIFT32
