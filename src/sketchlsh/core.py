"""Shared domain types: sparse binary vectors, identifiers, engine configuration.

All types here are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from ._bits import mix64

VectorId = int
"""Global 64-bit unsigned vector identifier, unique across all partitions."""

#: Sentinel marking an unoccupied sketch cell. Never a valid VectorId; data
#: admission rejects it.
NULL_ID = 0xFFFFFFFFFFFFFFFF

#: The largest table count L: the index file header stores it as a u32. An
#: id lives on one rank and in one bucket per table, so no count that ranks
#: exchange can exceed it.
MAX_TABLES = 2**32 - 1


class SketchLshError(Exception):
    """Base class for all engine errors."""


class InvalidVectorError(SketchLshError, ValueError):
    """Malformed vector input: unsorted, duplicated, or out-of-range indices."""


class EmptyVectorError(SketchLshError, ValueError):
    """A vector with no active indices reached a hashing or indexing path."""


class ConfigError(SketchLshError, ValueError):
    """Invalid or inconsistent engine configuration."""


def _validated_indices(indices) -> np.ndarray:
    try:
        arr = np.asarray(indices, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InvalidVectorError(f"indices must be non-negative integers: {exc}") from None
    if arr.ndim != 1:
        raise InvalidVectorError("indices must be a one-dimensional sequence")
    # freezing a view never freezes the caller's array; a frozen one needs no view
    return arr.view() if arr is indices and arr.flags.writeable else arr


@dataclass(frozen=True, eq=False)
class SparseVector:
    """A sparse binary vector given by the sorted positions of its set bits.

    ``indices`` must be strictly increasing (no duplicates) and every index
    must be below ``dim``. Malformed input is rejected rather than repaired,
    so ingestion bugs surface instead of being silently masked.

    An empty index set is representable (it can occur in raw datasets), but
    hashing and indexing paths reject it with :class:`EmptyVectorError`.
    A u64 ``indices`` array is shared, not copied, as a read-only view, or
    as it is if it is read-only already.
    """

    indices: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        arr = _validated_indices(self.indices)
        if self.dim < 1:
            raise InvalidVectorError(f"dim must be positive, got {self.dim}")
        if arr.size:
            # uint64 subtraction wraps, so compare directly instead of diff().
            if not np.all(arr[1:] > arr[:-1]):
                raise InvalidVectorError("indices must be strictly increasing")
            if int(arr[-1]) >= self.dim:
                raise InvalidVectorError(
                    f"index {int(arr[-1])} out of range for dim {self.dim}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)

    @property
    def nnz(self) -> int:
        """Number of active (set) dimensions."""
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        head = ", ".join(str(int(i)) for i in self.indices[:6])
        tail = ", ..." if self.nnz > 6 else ""
        return f"SparseVector([{head}{tail}], nnz={self.nnz}, dim={self.dim})"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LshConfig:
    """Engine configuration shared verbatim by every node of a deployment.

    All per-node hash functions and sketch row hashes derive deterministically
    from ``master_seed``, which is what makes independently built partitions
    mergeable into one logical index.
    """

    hashes_per_table: int = 4
    num_tables: int = 16
    table_range: int = 1 << 20
    sketch_rows: int = 4
    sketch_cols: int = 0  # 0 means "derive as 4 * top_k"
    master_seed: int = 0x5A17E6D1
    top_k: int = 8

    def __post_init__(self) -> None:
        if self.hashes_per_table < 1:
            raise ConfigError("hashes_per_table must be >= 1")
        if not 1 <= self.num_tables <= MAX_TABLES:
            raise ConfigError(f"num_tables must be in 1..{MAX_TABLES}")
        if self.table_range < 2 or not _is_power_of_two(self.table_range):
            raise ConfigError("table_range must be a power of two >= 2")
        if self.table_range * self.num_tables > 1 << 64:
            # an index keys its buckets t·R + address in one u64 column
            raise ConfigError("table_range * num_tables must be at most 2^64")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.sketch_cols == 0:
            object.__setattr__(self, "sketch_cols", 4 * self.top_k)
        if self.sketch_rows < 1 or self.sketch_cols < 1:
            raise ConfigError("sketch shape must be at least 1x1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        # the fingerprint reads every field as a u64, and keys and hashes are u64 arithmetic
        wide = [f.name for f in fields(self) if getattr(self, f.name) > 0xFFFFFFFFFFFFFFFF]
        if wide:
            raise ConfigError(f"{', '.join(wide)} must fit in 64 bits (at most 2^64 - 1)")
        shape = [n for n in ("sketch_rows", "sketch_cols") if getattr(self, n) > 0xFFFFFFFF]
        if shape:
            raise ConfigError(
                f"{', '.join(shape)} must be at most 2^32 - 1: the sketch record's header "
                "holds W and B as u32 fields"
            )
        if self.hashes_per_table * self.num_tables > 0xFFFFFFFF:
            raise ConfigError(
                "hashes_per_table * num_tables must be at most 2^32 - 1: the densified "
                "hash maps every index into one of K·L bins by a u32 range map"
            )
        # the fields are frozen, so their digest is folded once, here
        acc = np.uint64(0xC0F1C0F1C0F1C0F1)
        for f in fields(self):
            acc = mix64(acc ^ np.uint64(getattr(self, f.name)))
        object.__setattr__(self, "_fingerprint", int(acc))

    def fingerprint(self) -> int:
        """Stable 64-bit digest of every field, in declaration order; used to
        detect config skew and stored in index files."""
        return self._fingerprint


@dataclass(frozen=True, eq=False)
class SparseRows:
    """A batch of sparse binary vectors in CSR form: row i holds the indices
    ``indices[indptr[i]:indptr[i + 1]]``, each row strictly increasing and
    below ``dim``. Rows may be empty.

    Validated on construction with whole-array checks, like
    :class:`SparseVector` row by row. An i64 ``indptr`` and a u64
    ``indices`` are shared, not copied, as read-only views; a read-only
    u64 ``indices`` as it is.
    """

    indptr: np.ndarray
    indices: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64).view()
        arr = _validated_indices(self.indices)
        if (
            indptr.ndim != 1
            or indptr.size < 1
            or indptr[0] != 0
            or indptr[-1] != arr.size
            or np.any(indptr[1:] < indptr[:-1])
        ):
            raise InvalidVectorError("row pointer must run from 0 to the index count")
        if arr.size:
            rising = arr[1:] > arr[:-1]
            starts = indptr[1:-1]
            rising[starts[(starts > 0) & (starts < arr.size)] - 1] = True  # row boundaries
            if not rising.all():
                raise InvalidVectorError("indices must be strictly increasing within a row")
            if int(arr.max()) >= self.dim:
                raise InvalidVectorError(f"index {int(arr.max())} out of range for dim {self.dim}")
        for a in (indptr, arr):
            a.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", arr)

    @classmethod
    def stack(cls, vectors: Sequence[SparseVector]) -> "SparseRows":
        """The vectors as rows, with one concatenate; ``dim`` is their largest."""
        indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum([v.nnz for v in vectors], out=indptr[1:])
        indices = (
            np.concatenate([v.indices for v in vectors]) if vectors else np.empty(0, np.uint64)
        )
        return cls(indptr, indices, max((v.dim for v in vectors), default=1))

    def __len__(self) -> int:
        return self.indptr.size - 1


@dataclass(frozen=True, eq=False)
class DatasetPartition:
    """One node's slice of the dataset: vector ids and their rows in CSR form.

    Built from (VectorId, SparseVector) pairs, or by :meth:`from_rows` from
    the columns directly. Its ids rise strictly with its rows, as line
    offsets do; a repeat or a fall is an :class:`InvalidVectorError`. The
    partitioner makes partitions of one dataset disjoint and covering.
    """

    node_id: int
    ids: np.ndarray  # (n,) uint64
    rows: SparseRows

    def __init__(self, node_id: int, vectors: Iterable[tuple[VectorId, SparseVector]]):
        pairs = [(int(i), v) for i, v in vectors]
        try:
            ids = np.array([vid for vid, _ in pairs], dtype=np.uint64)
        except OverflowError:
            vid = next(vid for vid, _ in pairs if not 0 <= vid < NULL_ID)
            raise InvalidVectorError(f"vector id {vid} outside the admissible range") from None
        self._set(node_id, ids, SparseRows.stack([v for _, v in pairs]))

    @classmethod
    def from_rows(cls, node_id: int, ids: np.ndarray, rows: SparseRows) -> "DatasetPartition":
        """A partition holding ``rows``, row i under vector id ``ids[i]``.
        A u64 ``ids`` array is shared, not copied, as a read-only view."""
        part = cls.__new__(cls)
        part._set(node_id, np.asarray(ids, dtype=np.uint64).view(), rows)
        return part

    def _set(self, node_id: int, ids: np.ndarray, rows: SparseRows) -> None:
        if ids.ndim != 1 or ids.size != len(rows):
            raise InvalidVectorError(f"{ids.size} vector ids for {len(rows)} rows")
        if np.any(ids == np.uint64(NULL_ID)):
            raise InvalidVectorError(f"vector id {NULL_ID} outside the admissible range")
        fall = np.flatnonzero(ids[1:] <= ids[:-1])
        if fall.size:
            prev, vid = ids[fall[0] : fall[0] + 2].tolist()
            kind = "duplicate vector id" if vid == prev else f"vector id {prev} before"
            raise InvalidVectorError(f"{kind} {vid} in partition: ids must strictly increase")
        ids.setflags(write=False)
        object.__setattr__(self, "node_id", int(node_id))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return int(self.ids.size)
