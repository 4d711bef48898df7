"""Per-node LSH index: one bucket table per hash table over a data partition.

Buckets are addressed by the combined hash of a vector's slots for that
table. A probed bucket is always observed as a fixed-size heavy-hitter
sketch of the ids inserted there, so the sketch and the payload it adds to
are the same size however skewed the bucket is. Building that sketch
replays every id of the bucket, so probe time still grows with bucket size.

Storage note: bucket contents are kept columnar, as per-table sorted
(address -> id stream) arrays, and a bucket's sketch is materialized on
probe by replaying its insertion stream. The replay reproduces the exact
sketch state that incremental per-insert updates would have produced, while
keeping the resident footprint near the raw data size even when the address
space is much larger than the partition. The same storage serves the exact
(sketch-free) aggregation mode directly, and the index file holds these
columns and nothing else.

Both aggregation modes probe a whole query batch with one walk over the
tables, which yields per table the id streams of every bucket the batch
addresses. The sketch mode builds them in one stacked sketch insert and
folds the table into the batch's stack of merged sketches with one merge;
the exact mode counts every (query, id) pair of the walk in one keyed sum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import (
    NULL_ID,
    ConfigError,
    DatasetPartition,
    LshConfig,
    SketchLshError,
    SparseRows,
    VectorId,
)
from .cluster import ExactCounts
from .hashing import HashFamily
from .sketch import TopkapiSketch, row_seeds_from_master

_INDEX_MAGIC = 0x58494C53  # "SLIX"
_INDEX_VERSION = 2
_HEADER = struct.Struct("<IIQIIQ")
_COUNTS = struct.Struct("<QQ")


class IndexFileError(SketchLshError):
    """A saved index file is truncated or malformed."""


@dataclass(frozen=True)
class _TableBuckets:
    """Columnar buckets of one table: sorted addresses with id streams."""

    addrs: np.ndarray  # (n_occupied,) uint64, sorted ascending
    offsets: np.ndarray  # (n_occupied + 1,) int64 into ids
    ids: np.ndarray  # (n_inserts,) uint64, per-bucket insertion order

    @classmethod
    def build(cls, addrs: np.ndarray, ids: np.ndarray) -> "_TableBuckets":
        order = np.argsort(addrs, kind="stable")  # stable keeps arrival order
        sorted_addrs = addrs[order]
        sorted_ids = ids[order]
        if sorted_addrs.size:
            boundaries = np.flatnonzero(sorted_addrs[1:] != sorted_addrs[:-1]) + 1
            starts = np.concatenate(([0], boundaries))
            uniq = sorted_addrs[starts]
            offsets = np.concatenate((starts, [sorted_addrs.size])).astype(np.int64)
        else:
            uniq = np.empty(0, dtype=np.uint64)
            offsets = np.zeros(1, dtype=np.int64)
        return cls(addrs=uniq, offsets=offsets, ids=sorted_ids)

    def streams(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Id streams of the buckets at ``addrs``, one address per query, back
        to back, and for each id its query; an empty address adds nothing."""
        pos = np.searchsorted(self.addrs, addrs)
        hit = np.flatnonzero(pos < self.occupied)
        hit = hit[self.addrs[pos[hit]] == addrs[hit]]
        starts = self.offsets[pos[hit]]
        lengths = self.offsets[pos[hit] + 1] - starts
        first = np.cumsum(lengths) - lengths  # where each stream starts in the output
        take = np.arange(int(lengths.sum())) + np.repeat(starts - first, lengths)
        return self.ids[take], np.repeat(hit, lengths)

    @property
    def occupied(self) -> int:
        return int(self.addrs.size)

    def defect(self, vector_count: int, table_range: int) -> str | None:
        """The first invariant of :func:`preprocess` these columns break, if any."""
        if self.ids.size != vector_count:
            return f"{self.ids.size} ids for {vector_count} vectors"
        if self.offsets[0] != 0 or self.offsets[-1] != self.ids.size:
            return "offsets do not run from 0 to the id count"
        if np.any(self.offsets[1:] <= self.offsets[:-1]):
            return "offsets do not strictly increase"
        if np.any(self.addrs[1:] <= self.addrs[:-1]):
            return "addresses do not strictly increase"
        if self.addrs.size and self.addrs[-1] >= np.uint64(table_range):
            return "address beyond the table range"
        if np.any(self.ids == np.uint64(NULL_ID)):
            return "null id in a bucket"
        return None


class NodeIndex:
    """One node's LSH tables over its partition, plus the shared hash family.

    Frozen after :func:`preprocess` returns; all reads (probes, exact
    counting) may then run fully concurrently.
    """

    def __init__(
        self,
        config: LshConfig,
        node_id: int,
        tables: list[_TableBuckets],
        vector_count: int,
        rejected: tuple[tuple[VectorId, str], ...] = (),
    ):
        if len(tables) != config.num_tables:
            raise ConfigError("table count does not match configuration")
        self.config = config
        self.node_id = node_id
        self.tables = tables
        self.vector_count = vector_count
        self.rejected = rejected
        self.row_seeds = row_seeds_from_master(config.master_seed, config.sketch_rows)

    # -- probing -----------------------------------------------------------------

    def empty_sketch(self, members: int | None = None) -> TopkapiSketch:
        """An empty sketch, or with ``members=n`` an empty stack of n."""
        return TopkapiSketch(
            self.config.sketch_rows, self.config.sketch_cols, self.row_seeds, members
        )

    def _checked(self, addresses) -> np.ndarray:
        """``addresses`` as an (n, L) uint64 matrix of one address per table,
        each below ``table_range``; anything else is a :class:`ConfigError`."""
        addresses = np.asarray(addresses, dtype=np.uint64)
        num_tables = self.config.num_tables
        if addresses.ndim != 2 or addresses.shape[1] != num_tables:
            raise ConfigError(
                f"expected an (n, {num_tables}) address matrix, got shape {addresses.shape}"
            )
        if addresses.size and int(addresses.max()) >= self.config.table_range:
            raise ConfigError("address out of table range")
        return addresses

    def _addressed(self, batch: np.ndarray):
        """Per table with a hit, the ids of every bucket the (n, L) ``batch``
        addresses, back to back, and for each id the query it belongs to."""
        for t, tb in enumerate(self.tables):
            items, queries = tb.streams(batch[:, t])
            if items.size:
                yield items, queries

    def local_candidates(self, addresses: np.ndarray) -> TopkapiSketch:
        """Merges of this node's addressed bucket sketches for a query batch.

        ``addresses`` is the batch's (n, L) address matrix, and only that:
        a single (L,) row is a :class:`ConfigError`. The result is an
        (n, W, B) stack whose member q merges query q's buckets; it goes to
        the reduce and the extraction as it is. Per table, every addressed
        bucket is built in one stacked insert and the table is folded into
        the stack with one merge. Tables fold left to right (the merge rule
        is not associative); empty buckets contribute the identity. No
        distance computation is involved anywhere on this path.
        """
        batch = self._checked(addresses)
        merged = self.empty_sketch(len(batch))
        for items, queries in self._addressed(batch):
            table = self.empty_sketch(len(batch))
            table.insert_many(items, queries)
            merged = merged.merge(table)
        return merged

    def exact_candidates(self, addresses: np.ndarray) -> ExactCounts:
        """Exact per-id occurrence counts over each query's addressed buckets,
        for the batch's (n, L) address matrix."""
        batch = self._checked(addresses)
        walk = list(self._addressed(batch))
        ids = np.concatenate([items for items, _ in walk] + [np.empty(0, np.uint64)])
        queries = np.concatenate([q for _, q in walk] + [np.empty(0, np.int64)])
        return ExactCounts.summed(len(batch), queries, ids, np.ones(ids.size, np.uint64))

    @property
    def occupied_slots(self) -> list[int]:
        return [t.occupied for t in self.tables]

    # -- persistence ----------------------------------------------------------------

    def save(self, path) -> None:
        """Write the index: the header, then per table its bucket columns.

        Each table is ``(n_addr, n_ids)`` followed by the ``addrs``,
        ``offsets`` and ``ids`` columns, little-endian. No sketch is stored:
        probes rebuild them from the id streams bit for bit.
        """
        with open(path, "wb") as f:
            f.write(
                _HEADER.pack(
                    _INDEX_MAGIC,
                    _INDEX_VERSION,
                    self.config.fingerprint(),
                    self.node_id,
                    self.config.num_tables,
                    self.vector_count,
                )
            )
            for tb in self.tables:
                f.write(_COUNTS.pack(tb.addrs.size, tb.ids.size))
                f.write(tb.addrs.astype("<u8").tobytes())
                f.write(tb.offsets.astype("<i8").tobytes())
                f.write(tb.ids.astype("<u8").tobytes())

    @classmethod
    def load(cls, path, config: LshConfig) -> "NodeIndex":
        """Reload a saved index; the caller supplies the deployment config.

        Every length is checked against the file before it is read, and
        every table against the invariants :func:`preprocess` guarantees, so
        a truncated or malformed file raises :class:`IndexFileError`. The
        columns are read-only views of the file's bytes.
        """
        with open(path, "rb") as f:
            data = f.read()
        reader = _Reader(data)
        magic, version, fp, node_id, num_tables, vector_count = reader.unpack(
            _HEADER, "header"
        )
        if magic != _INDEX_MAGIC:
            raise IndexFileError("not an index file (bad magic)")
        if version != _INDEX_VERSION:
            raise IndexFileError(
                f"index file version {version} is not supported; rebuild it with `sketchlsh index`"
            )
        if fp != config.fingerprint():
            raise ConfigError("index was built under a different configuration")
        if num_tables != config.num_tables:
            raise ConfigError("table count mismatch against configuration")
        tables = []
        for t in range(num_tables):
            what = f"table {t}"
            n_addr, n_ids = reader.unpack(_COUNTS, what)
            tb = _TableBuckets(
                addrs=reader.array("<u8", n_addr, what),
                offsets=reader.array("<i8", n_addr + 1, what),
                ids=reader.array("<u8", n_ids, what),
            )
            defect = tb.defect(vector_count, config.table_range)
            if defect:
                raise IndexFileError(f"malformed index {what}: {defect}")
            tables.append(tb)
        if reader.off != len(data):
            raise IndexFileError("trailing bytes after the last table")
        return cls(
            config=config,
            node_id=node_id,
            tables=tables,
            vector_count=vector_count,
        )


class _Reader:
    """Bounds-checked sequential reads from an index file's bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def _take(self, nbytes: int, what: str) -> int:
        if self.off + nbytes > len(self.data):
            raise IndexFileError(
                f"index file truncated in {what}: needs {nbytes} bytes at offset "
                f"{self.off}, file has {len(self.data)}"
            )
        start = self.off
        self.off += nbytes
        return start

    def unpack(self, fmt: struct.Struct, what: str) -> tuple:
        return fmt.unpack_from(self.data, self._take(fmt.size, what))

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        start = self._take(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start)


def preprocess(partition: DatasetPartition, config: LshConfig) -> NodeIndex:
    """Build a node's index over its partition.

    Every valid vector is routed into one bucket per table (its combined
    slot hash under that table's seed); the partition's rows are hashed
    with one :meth:`HashFamily.addresses` call. Empty vectors are rejected
    with a per-record report and indexing continues.
    """
    rows = partition.rows
    empty = rows.indptr[1:] == rows.indptr[:-1]
    rejected = tuple((vid, "empty vector") for vid in partition.ids[empty].tolist())
    ids = partition.ids[~empty]
    if rejected:
        # an empty row starts where the next one does, so dropping its start
        # from the row pointer drops the row and leaves the indices as they are
        rows = SparseRows(rows.indptr[np.append(~empty, True)], rows.indices, rows.dim)
    addr_matrix = HashFamily.from_config(config).addresses(rows)
    tables = [
        _TableBuckets.build(addr_matrix[:, t].copy(), ids)
        for t in range(config.num_tables)
    ]
    return NodeIndex(
        config=config,
        node_id=partition.node_id,
        tables=tables,
        vector_count=int(ids.size),
        rejected=rejected,
    )
