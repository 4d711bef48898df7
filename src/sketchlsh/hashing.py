"""MinHash, densified one-permutation hashing, and table addressing.

Everything here is a pure function of (vector, seed), so any two nodes that
share a master seed compute bit-identical hashes without communicating.

:meth:`HashFamily.addresses` is the one hashing path of indexing and
querying. It hashes a whole batch of vectors (a partition or a query slice)
in one array pass over their indices held back to back; densification
keeps no state between vectors, so the batch gives each vector exactly the
slots of :func:`doph_hashes`, which stays as the per-vector reference along
with :func:`table_address`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._bits import UINT64_MAX, mix64, range_map, seed_stream
from .core import ConfigError, EmptyVectorError, LshConfig, SparseVector, derive_seeds

_TAG_TABLE_SEEDS = 0x7AB1E
_TAG_PERM_SEED = 0x9E21
_DENSIFY_SALT = np.uint64(0xD59F1E57A11)

# Bins per pass of the batched hash: bounds its (rows, K*L) scratch matrices
# (256 rows at K*L = 64; larger passes ran no faster and took more memory).
_CHUNK_BINS = 1 << 14


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
    """Vectorized :func:`table_address` across all tables at once.

    ``slot_hashes`` is (..., num_tables, slots); the fold runs along the last
    axis and gives (..., num_tables) addresses.
    """
    acc = table_seeds
    for j in range(slot_hashes.shape[-1]):
        acc = mix64(acc ^ slot_hashes[..., j])
    return acc & np.uint64(table_range - 1)


def _densified_rows(
    vectors: Sequence[SparseVector], n_bins: int, seed: int, coins: np.ndarray
) -> np.ndarray:
    """:func:`doph_hashes` of every vector in one pass, shape (n, n_bins).

    The vectors' indices are hashed back to back (CSR order) and every hash
    is folded into its row's bin minimum with one scatter. Per row, the
    nearest occupied bin on each side comes from running max/min scans, and
    rows wrap to their own last or first occupied bin. An occupied bin is
    its own nearest neighbour on both sides, so one gather through the coin
    choice fills empty bins and keeps occupied ones.
    """
    lengths = np.array([v.nnz for v in vectors], dtype=np.intp)
    if not lengths.all():
        raise EmptyVectorError("cannot hash a vector with no active indices")
    n = lengths.size
    h = _index_hashes(np.concatenate([v.indices for v in vectors]), np.uint64(seed))
    cells = np.repeat(np.arange(n) * n_bins, lengths) + range_map(h, n_bins).astype(np.intp)
    mins = np.full(n * n_bins, UINT64_MAX, dtype=np.uint64)
    np.minimum.at(mins, cells, h)
    occupied = np.zeros(n * n_bins, dtype=bool)
    occupied[cells] = True
    occupied = occupied.reshape(n, n_bins)

    idx = np.arange(n_bins)
    left = np.where(occupied, idx, -1)
    np.maximum.accumulate(left, axis=1, out=left)
    left = np.where(left >= 0, left, left[:, -1:])
    right = np.where(occupied, idx, n_bins)[:, ::-1]
    right = np.minimum.accumulate(right, axis=1)[:, ::-1]
    right = np.where(right < n_bins, right, right[:, :1])
    source = np.where(coins, right, left)
    return np.take_along_axis(mins.reshape(n, n_bins), source, axis=1)


@dataclass(frozen=True)
class HashFamily:
    """The full per-deployment hash family, derived from one master seed.

    ``seeds`` is the (num_tables x hashes_per_table) slot seed matrix that
    identifies the family; the one-permutation seed, per-table folding
    seeds and densification coins are derived alongside it. Stateless and
    reentrant.
    """

    seeds: np.ndarray
    table_seeds: np.ndarray
    perm_seed: int
    table_range: int
    coins: np.ndarray

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
            coins=_densify_coins(np.uint64(perm), seeds.size),
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
        rows = _densified_rows([v], self.seeds.size, self.perm_seed, self.coins)
        return rows.reshape(self.seeds.shape)

    def addresses(self, vectors: SparseVector | Sequence[SparseVector]) -> np.ndarray:
        """Per-table bucket addresses: (num_tables,) for one vector, or
        (n, num_tables) for a sequence of n vectors ((0, num_tables) when
        empty).

        A sequence is hashed in array passes of up to 2^14 bins' worth of
        rows, so scratch memory stays bounded for a whole partition. Raises
        :class:`EmptyVectorError` if any vector has no active indices.
        """
        single = isinstance(vectors, SparseVector)
        batch = [vectors] if single else list(vectors)
        out = np.empty((len(batch), self.num_tables), dtype=np.uint64)
        step = max(1, _CHUNK_BINS // self.seeds.size)
        for lo in range(0, len(batch), step):
            rows = _densified_rows(
                batch[lo : lo + step], self.seeds.size, self.perm_seed, self.coins
            )
            slots = rows.reshape((-1,) + self.seeds.shape)
            out[lo : lo + step] = _fold_addresses(slots, self.table_seeds, self.table_range)
        return out[0] if single else out
