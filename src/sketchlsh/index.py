"""Per-node LSH index: one bucket table per hash table over a data partition.

Buckets are addressed by the combined hash of a vector's slots for that
table. A probed bucket is always observed as a fixed-size heavy-hitter
sketch of the ids inserted there, so the sketch and the payload it adds to
are the same size however skewed the bucket is.

Storage note: bucket contents are kept columnar, as per-table sorted
(address -> id stream) arrays, and the index file holds these columns and
nothing else. A bucket of at most W·B ids (a sketch's cell count) has its
sketch materialized on probe by replaying its insertion stream, which
reproduces the exact state that incremental per-insert updates would have
produced. A *heavy* bucket, one of more ids, is also kept as its finished
sketch, computed in closed form whenever a :class:`NodeIndex` is built
(by :func:`preprocess` and by :meth:`NodeIndex.load`). A probe therefore
replays at most W·B ids or copies W·B cells per (query, table), however
skewed the data, and the heavy sketches take at most 16 B per vector per
table. The same columns serve the exact (sketch-free) aggregation mode
directly.

Both aggregation modes probe a whole query batch with one walk over the
tables, which yields per table the buckets that the batch addresses. The
sketch mode copies the addressed heavy sketches and builds the other
buckets in one stacked sketch insert, then folds the table into the
batch's stack of merged sketches with one merge; the exact mode counts
every (query, id) pair of the walk in one keyed sum.
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

    def find(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entries of ``addrs`` (one address per query) that address an
        occupied bucket, and the position of that bucket in the columns."""
        pos = np.searchsorted(self.addrs, addrs)
        hit = np.flatnonzero(pos < self.occupied)
        hit = hit[self.addrs[pos[hit]] == addrs[hit]]
        return hit, pos[hit]

    def streams(self, owners: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Id streams of the buckets at positions ``pos``, back to back, and
        for each id the owner listed with its bucket."""
        starts = self.offsets[pos]
        lengths = self.offsets[pos + 1] - starts
        first = np.cumsum(lengths) - lengths  # where each stream starts in the output
        take = np.arange(int(lengths.sum())) + np.repeat(starts - first, lengths)
        return self.ids[take], np.repeat(owners, lengths)

    @property
    def occupied(self) -> int:
        return int(self.addrs.size)

    def defect(self, vector_count: int, table_range: int) -> str | None:
        """The first invariant of :func:`preprocess` these columns break, if any."""
        if self.ids.size != vector_count:
            return f"{self.ids.size} ids for {vector_count} vectors"
        if self.offsets[0] != 0 or self.offsets[-1] != self.ids.size:
            return "offsets do not run from 0 to the id count"
        if (self.offsets[1:] <= self.offsets[:-1]).any():
            return "offsets do not strictly increase"
        if (self.addrs[1:] <= self.addrs[:-1]).any():
            return "addresses do not strictly increase"
        if self.addrs.size and self.addrs[-1] >= np.uint64(table_range):
            return "address beyond the table range"
        if self.ids.max(initial=0) == np.uint64(NULL_ID):  # the null id is the largest u64
            return "null id in a bucket"
        return None


def _closed_form(
    empty: TopkapiSketch, ids: np.ndarray, lengths: np.ndarray, table: int
) -> TopkapiSketch:
    """A stack of the sketches of table ``table``'s buckets whose id streams
    are ``ids``, back to back and ``lengths`` long.

    An id lands in one bucket per table, so each cell of a bucket's sketch
    sees a stream of distinct ids. Under the majority rule, k distinct
    arrivals leave a cell at (last id, 1) if k is odd and at
    (second-to-last id, 0) if k is even (Boyer and Moore, MJRTY, 1981). One
    bincount and two ``np.maximum.at`` passes over the (id, row) arrivals
    give every cell. An id that appears twice among the buckets raises
    :class:`IndexFileError`: no build makes one.
    """
    rows, cols = empty.rows, empty.cols
    ranked = np.sort(ids)
    twice = np.flatnonzero(ranked[1:] == ranked[:-1])
    if twice.size:
        raise IndexFileError(
            f"malformed index table {table}: id {ranked[twice[0]]} appears twice "
            f"among its buckets of more than {rows * cols} ids"
        )
    # each arrival's cell, arrival-major, so a cell's arrivals stay in stream order
    cell = empty._row_bins(ids)
    cell += np.arange(rows) * cols
    cell += np.repeat(np.arange(lengths.size) * (rows * cols), lengths)[:, None]
    cell = cell.ravel()
    n_cells = lengths.size * rows * cols
    odd = np.bincount(cell, minlength=n_cells) % 2 == 1
    arrival = np.arange(cell.size)
    last = np.full(n_cells, -1)
    np.maximum.at(last, cell, arrival)
    arrival[last[last >= 0]] = -1  # drop each cell's last arrival
    second = np.full(n_cells, -1)
    np.maximum.at(second, cell, arrival)
    holder = np.where(odd, last, second)  # -1 only where nothing arrived
    out = TopkapiSketch(rows, cols, empty.row_seeds, lengths.size)
    out.ids.flat = np.where(holder >= 0, ids[holder // rows], np.uint64(NULL_ID))
    out.counts.flat = odd
    return out


class NodeIndex:
    """One node's LSH tables over its partition, plus the shared hash family.

    Frozen after :func:`preprocess` returns; all reads (probes, exact
    counting) may then run fully concurrently. ``heavy`` maps each table
    that has heavy buckets to their positions in its columns and the stack
    of their finished sketches, in the same order.
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
        self.heavy = self._heavy_sketches()

    def _heavy_sketches(self) -> dict[int, tuple[np.ndarray, TopkapiSketch]]:
        """The finished sketch of every heavy bucket, a bucket of more ids
        than a sketch has cells: per table that has any, their positions in
        its columns and a stack of their sketches (:func:`_closed_form`) in
        the same order. An index whose tables have too few ids per bucket
        to hold one costs a comparison per table and allocates nothing;
        otherwise one pass over every table's offsets finds them.
        """
        cells = self.config.sketch_rows * self.config.sketch_cols
        # a table's largest bucket holds at most the ids its other buckets leave
        if all(tb.ids.size - tb.occupied < cells for tb in self.tables):
            return {}
        # every table's bucket sizes in one pass; each table boundary gives one size <= 0
        offsets = np.concatenate([tb.offsets for tb in self.tables])
        sizes = offsets[1:] - offsets[:-1]
        if sizes.max(initial=0) <= cells:
            return {}
        starts = np.cumsum([0] + [tb.offsets.size for tb in self.tables])  # of each table in sizes
        heavy = np.flatnonzero(sizes > cells)
        table_of = np.searchsorted(starts, heavy, side="right") - 1
        empty = self.empty_sketch()
        out = {}
        for t in np.unique(table_of).tolist():
            pos = heavy[table_of == t] - starts[t]
            ids, _ = self.tables[t].streams(pos, pos)
            out[t] = (pos, _closed_form(empty, ids, sizes[starts[t] + pos], t))
        return out

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
        """Per table with a hit in the (n, L) ``batch``: the table number,
        its columns, the queries whose bucket is occupied and the positions
        of those buckets."""
        for t, tb in enumerate(self.tables):
            hit, pos = tb.find(batch[:, t])
            if hit.size:
                yield t, tb, hit, pos

    def local_candidates(self, addresses: np.ndarray) -> TopkapiSketch:
        """Merges of this node's addressed bucket sketches for a query batch.

        ``addresses`` is the batch's (n, L) address matrix, and only that:
        a single (L,) row is a :class:`ConfigError`. The result is an
        (n, W, B) stack whose member q merges query q's buckets; it goes to
        the reduce and the extraction as it is. Per table, the addressed
        heavy buckets' finished sketches are copied in, every other
        addressed bucket is built in one stacked insert, and the table is
        folded into the stack with one merge. Tables fold left to right (the
        merge rule is not associative); empty buckets contribute the
        identity. No distance computation is involved anywhere on this path.
        """
        batch = self._checked(addresses)
        merged = self.empty_sketch(len(batch))
        for t, tb, hit, pos in self._addressed(batch):
            table = self.empty_sketch(len(batch))
            if t in self.heavy:
                where, sketches = self.heavy[t]
                j = np.minimum(np.searchsorted(where, pos), where.size - 1)
                big = where[j] == pos
                table.ids[hit[big]] = sketches.ids[j[big]]
                table.counts[hit[big]] = sketches.counts[j[big]]
                hit, pos = hit[~big], pos[~big]
            if hit.size:
                table.insert_many(*tb.streams(hit, pos))
            merged = merged.merge(table)
        return merged

    def exact_candidates(self, addresses: np.ndarray) -> ExactCounts:
        """Exact per-id occurrence counts over each query's addressed buckets,
        for the batch's (n, L) address matrix."""
        batch = self._checked(addresses)
        walk = [tb.streams(hit, pos) for _, tb, hit, pos in self._addressed(batch)]
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
        probes rebuild them from the id streams, and :meth:`load` the heavy
        ones, bit for bit.
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
        a truncated or malformed file raises :class:`IndexFileError`; so
        does an id that appears twice among a table's heavy buckets, which
        the closed form of their sketches rules out. The columns are
        read-only views of the file's bytes; the heavy sketches are built
        from them.
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
    # one column per table; the address matrix is freed before the heavy build
    tables = [
        _TableBuckets.build(column.copy(), ids)
        for column in HashFamily.from_config(config).addresses(rows).T
    ]
    return NodeIndex(
        config=config,
        node_id=partition.node_id,
        tables=tables,
        vector_count=int(ids.size),
        rejected=rejected,
    )
