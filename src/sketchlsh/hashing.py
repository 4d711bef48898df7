"""MinHash, densified one-permutation hashing, and table addressing.

Everything here is a pure function of (vector, seed), so any two nodes that
share a master seed compute bit-identical hashes without communicating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bits import UINT64_MAX, mix64, range_map, seed_stream
from .core import ConfigError, EmptyVectorError, LshConfig, SparseVector, derive_seeds

_TAG_TABLE_SEEDS = 0x7AB1E
_TAG_PERM_SEED = 0x9E21
_DENSIFY_SALT = np.uint64(0xD59F1E57A11)


def _index_hashes(indices: np.ndarray, seed: np.uint64) -> np.ndarray:
    """Seeded 64-bit hash of each active index; one mixer pass per index."""
    return mix64(mix64(indices) ^ np.uint64(seed))


def minhash(v: SparseVector, seed: int) -> int:
    """Minimum of a seeded 64-bit hash over the vector's active indices.

    The collision probability of two vectors under a random seed equals
    their Jaccard similarity |x & y| / |x | y| up to the (negligible) bias
    of hashing instead of a true random permutation.
    """
    if v.nnz == 0:
        raise EmptyVectorError("cannot MinHash a vector with no active indices")
    return int(_index_hashes(v.indices, np.uint64(seed)).min())


def minhash_many(v: SparseVector, seeds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`minhash` over an array of seeds."""
    if v.nnz == 0:
        raise EmptyVectorError("cannot MinHash a vector with no active indices")
    pre = mix64(v.indices)
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty(seeds.shape, dtype=np.uint64)
    step = max(1, (1 << 22) // max(1, v.nnz))  # bound scratch memory
    for lo in range(0, seeds.size, step):
        block = seeds[lo : lo + step]
        out[lo : lo + step] = mix64(pre[None, :] ^ block[:, None]).min(axis=1)
    return out


def _densify_coins(seed: np.uint64, n_bins: int) -> np.ndarray:
    """Direction coin per (bin, attempt): True means copy from the right.

    Coins depend only on the seed and bin lane, never on the data, so the
    same bins densify in the same direction for every vector. Only attempt 0
    is ever consumed: the directional scan below always terminates because
    it wraps circularly and the vector is non-empty.
    """
    attempt = np.uint64(0)
    lanes = (np.arange(n_bins, dtype=np.uint64) << np.uint64(1)) | attempt
    dseed = mix64(np.uint64(seed) ^ _DENSIFY_SALT)
    return (mix64(mix64(lanes) ^ dseed) & np.uint64(1)).astype(bool)


def doph_hashes(v: SparseVector, n_bins: int, seed: int) -> np.ndarray:
    """Densified one-permutation hashing: n_bins hash values in one pass.

    Each active index is hashed exactly once and routed to bin
    floor(hash * n_bins / 2**64); each bin keeps its minimum. Empty bins copy
    the value of the nearest non-empty bin, scanning circularly left or right
    according to a seeded per-bin coin.
    """
    if v.nnz == 0:
        raise EmptyVectorError("cannot hash a vector with no active indices")
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    h = _index_hashes(v.indices, np.uint64(seed))
    bins = range_map(h, n_bins).astype(np.intp)
    mins = np.full(n_bins, UINT64_MAX, dtype=np.uint64)
    np.minimum.at(mins, bins, h)
    occupied = np.zeros(n_bins, dtype=bool)
    occupied[bins] = True
    if occupied.all():
        return mins

    idx = np.arange(n_bins)
    occ_idx = np.flatnonzero(occupied)
    # Nearest occupied bin at-or-left of each bin, wrapping past 0.
    left = np.where(occupied, idx, -1)
    np.maximum.accumulate(left, out=left)
    left = np.where(left >= 0, left, occ_idx[-1])
    # Nearest occupied bin at-or-right of each bin, wrapping past the end.
    right = np.where(occupied, idx, n_bins)
    right = np.minimum.accumulate(right[::-1])[::-1]
    right = np.where(right < n_bins, right, occ_idx[0])

    coins = _densify_coins(np.uint64(seed), n_bins)
    source = np.where(coins, right, left)
    empty = ~occupied
    mins[empty] = mins[source[empty]]
    return mins


def table_address(hashes, table_seed: int, table_range: int) -> int:
    """Combine one table's hash slots into an address in [0, table_range).

    Folds the slots through the mixer under the table's own seed, then masks
    to log2(table_range) bits; table_range must be a power of two. Two inputs
    with all slots equal always map to the same address.
    """
    if table_range < 2 or table_range & (table_range - 1):
        raise ConfigError("table_range must be a power of two >= 2")
    acc = np.uint64(table_seed)
    for h in np.asarray(hashes, dtype=np.uint64):
        acc = mix64(acc ^ h)
    return int(acc & np.uint64(table_range - 1))


def _fold_addresses(
    slot_hashes: np.ndarray, table_seeds: np.ndarray, table_range: int
) -> np.ndarray:
    """Vectorized :func:`table_address` across all tables at once."""
    acc = table_seeds.copy()
    for j in range(slot_hashes.shape[1]):
        acc = mix64(acc ^ slot_hashes[:, j])
    return acc & np.uint64(table_range - 1)


@dataclass(frozen=True)
class HashFamily:
    """The full per-deployment hash family, derived from one master seed.

    ``seeds`` is the (num_tables x hashes_per_table) slot seed matrix that
    identifies the family; the one-permutation seed and per-table folding
    seeds are derived alongside it. Stateless and reentrant.
    """

    seeds: np.ndarray
    table_seeds: np.ndarray
    perm_seed: int
    table_range: int

    @classmethod
    def from_config(cls, config: LshConfig) -> "HashFamily":
        seeds = derive_seeds(
            config.master_seed, config.hashes_per_table, config.num_tables
        )
        table_seeds = seed_stream(
            config.master_seed, config.num_tables, tag=_TAG_TABLE_SEEDS
        )
        perm = int(seed_stream(config.master_seed, 1, tag=_TAG_PERM_SEED)[0])
        return cls(
            seeds=seeds,
            table_seeds=table_seeds,
            perm_seed=perm,
            table_range=config.table_range,
        )

    @property
    def num_tables(self) -> int:
        return self.seeds.shape[0]

    @property
    def hashes_per_table(self) -> int:
        return self.seeds.shape[1]

    def slot_hashes(self, v: SparseVector) -> np.ndarray:
        """All (num_tables x hashes_per_table) hash slots from one pass.

        One densified one-permutation evaluation produces every slot; row i
        holds the slots feeding table i.
        """
        n = self.num_tables * self.hashes_per_table
        return doph_hashes(v, n, self.perm_seed).reshape(
            self.num_tables, self.hashes_per_table
        )

    def addresses(self, v: SparseVector) -> np.ndarray:
        """Per-table bucket address of a vector, shape (num_tables,)."""
        return _fold_addresses(self.slot_hashes(v), self.table_seeds, self.table_range)
