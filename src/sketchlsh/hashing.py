"""MinHash, densified one-permutation hashing, and table addressing.

Everything here is a pure function of (vector, seed), so any two nodes that
share a master seed compute bit-identical hashes without communicating.

:meth:`HashFamily.addresses` is the one hashing path of indexing and
querying. It hashes a batch of vectors, as :class:`SparseRows` (a
partition) or a sequence of vectors (a query slice), in one array pass
over their indices held back to back; densification keeps no state
between vectors, so the batch gives each vector exactly the slots that
densified one-permutation hashing of that vector alone gives. The
per-vector and per-seed references of these hashes, and of the table
fold, live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._bits import UINT64_MAX, mix64, range_map, seed_stream
from .core import (
    EmptyVectorError,
    LshConfig,
    SparseRows,
    SparseVector,
)

_TAG_TABLE_SEEDS = 0x7AB1E
_TAG_PERM_SEED = 0x9E21
_DENSIFY_SALT = np.uint64(0xD59F1E57A11)

# Bins, and indices, per pass of the batched hash: bounds its (rows, K*L)
# and per-index scratch arrays to 64 KiB (128 rows at K*L = 64). glibc trims
# the heap when a chunk of 64 KiB or more is freed onto a large free top, so
# with 128 KiB arrays (2^14 bins) whether each pass faulted its scratch in
# afresh depended on the heap's layout: 150 to 9000 minor faults per
# 10k-vector partition, and 0.027 to 0.037 CPU s to hash it. At 2^13 the
# passes fault 150-800 pages and take 0.029-0.030 s.
_CHUNK_BINS = 1 << 13


def _index_hashes(indices: np.ndarray, seed: np.uint64) -> np.ndarray:
    """Seeded 64-bit hash of each active index; one mixer pass per index."""
    return mix64(mix64(indices) ^ np.uint64(seed))


def minhash_many(v: SparseVector, seeds: np.ndarray) -> np.ndarray:
    """MinHash of ``v`` under each seed: the minimum of a seeded 64-bit hash
    over its active indices. Two vectors collide under a random seed with
    probability their Jaccard similarity |x & y| / |x | y|, up to the
    (negligible) bias of hashing instead of a true random permutation."""
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
    """Direction coin per bin: True means copy from the right.

    Coins depend only on the seed and the bin's lane (the bin number shifted
    left by one, which fixes every coin, address and index file), never on
    the data, so the same bins densify in the same direction for every
    vector. One coin per bin suffices: the directional scan of
    :func:`_densified_rows` always ends, as it wraps over a non-empty row.
    """
    lanes = np.arange(n_bins, dtype=np.uint64) << np.uint64(1)
    dseed = mix64(np.uint64(seed) ^ _DENSIFY_SALT)
    return (mix64(mix64(lanes) ^ dseed) & np.uint64(1)).astype(bool)


def _fold_addresses(
    slot_hashes: np.ndarray, table_seeds: np.ndarray, table_range: int
) -> np.ndarray:
    """Combine each table's hash slots into an address in [0, table_range).

    ``slot_hashes`` is (..., num_tables, slots); the slots fold through the
    mixer under the table's own seed along the last axis, and the result is
    masked to log2(table_range) bits, giving (..., num_tables) addresses.
    Two inputs with all slots equal always map to the same address.
    """
    acc = table_seeds
    for j in range(slot_hashes.shape[-1]):
        acc = mix64(acc ^ slot_hashes[..., j])
    return acc & np.uint64(table_range - 1)


def _densified_rows(
    indptr: np.ndarray, indices: np.ndarray, n_bins: int, seed: int, coins: np.ndarray
) -> np.ndarray:
    """Densified one-permutation hashes of every CSR row in one pass,
    shape (n, n_bins).

    Row i is ``indices[indptr[i]:indptr[i + 1]]``; ``indptr`` may be a slice
    of a larger batch's row pointer. Each active index is hashed exactly
    once and routed to bin floor(hash * n_bins / 2**64), and every hash is
    folded into its row's bin minimum with one scatter. Empty bins copy the
    value of the nearest non-empty bin of their row, scanning circularly
    left or right according to a seeded per-bin coin. Per row, the nearest occupied bin on each side comes from
    running max/min scans, and rows wrap to their own last or first occupied
    bin. An occupied bin is its own nearest neighbour on both sides, so one
    gather through the coin choice fills empty bins and keeps occupied ones.
    """
    lengths = np.diff(indptr)
    if not lengths.all():
        raise EmptyVectorError("cannot hash a vector with no active indices")
    n = lengths.size
    h = _index_hashes(indices[indptr[0] : indptr[-1]], np.uint64(seed))
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

    Each vector's num_tables x hashes_per_table slots come from one
    densified one-permutation hash under ``perm_seed`` and ``coins``; table
    t folds its row of slots under ``table_seeds[t]``. Stateless and
    reentrant.
    """

    num_tables: int
    hashes_per_table: int
    table_seeds: np.ndarray
    perm_seed: int
    table_range: int
    coins: np.ndarray

    @classmethod
    def from_config(cls, config: LshConfig) -> "HashFamily":
        perm = int(seed_stream(config.master_seed, 1, tag=_TAG_PERM_SEED)[0])
        return cls(
            num_tables=config.num_tables,
            hashes_per_table=config.hashes_per_table,
            table_seeds=seed_stream(config.master_seed, config.num_tables, tag=_TAG_TABLE_SEEDS),
            perm_seed=perm,
            table_range=config.table_range,
            coins=_densify_coins(np.uint64(perm), config.num_tables * config.hashes_per_table),
        )

    def addresses(
        self, vectors: SparseVector | Sequence[SparseVector] | SparseRows
    ) -> np.ndarray:
        """Per-table bucket addresses of a batch of n rows, (n, num_tables)
        ((0, num_tables) when there are none).

        Rows come as :class:`SparseRows` or as a sequence of vectors, which
        is stacked into rows first; one bare vector gives its (num_tables,)
        row, a form that only perfbench's tracer test passes. Rows are
        hashed in array passes of at most 2^13 bins and 2^13 indices (or one
        row), so scratch memory stays small and steady for a whole
        partition. Raises :class:`EmptyVectorError` if any row is empty.
        """
        single = isinstance(vectors, SparseVector)
        if isinstance(vectors, SparseRows):
            rows = vectors
        else:
            rows = SparseRows.stack([vectors] if single else list(vectors))
        out = np.empty((len(rows), self.num_tables), dtype=np.uint64)
        n_bins = self.num_tables * self.hashes_per_table
        step = max(1, _CHUNK_BINS // n_bins)
        lo = 0
        while lo < len(rows):
            # the rows from lo whose indices fit in one pass, at least one
            fit = int(np.searchsorted(rows.indptr, rows.indptr[lo] + _CHUNK_BINS, "right")) - 1
            hi = max(lo + 1, min(lo + step, fit))
            hashed = _densified_rows(
                rows.indptr[lo : hi + 1], rows.indices, n_bins, self.perm_seed, self.coins
            )
            slots = hashed.reshape(-1, self.num_tables, self.hashes_per_table)
            out[lo:hi] = _fold_addresses(slots, self.table_seeds, self.table_range)
            lo = hi
        return out[0] if single else out
