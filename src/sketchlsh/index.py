"""Per-node LSH index: one bucket directory over all hash tables of a data partition.

Buckets are addressed by the combined hash of a vector's slots for that
table. A probed bucket is always observed as a fixed-size heavy-hitter
sketch of the ids inserted there, so the sketch and the payload it adds to
are the same size however skewed the bucket is.

Storage note: the L tables' buckets are kept columnar, as one directory
(see :class:`NodeIndex`), and the index file holds its four columns and
nothing else. Each vector id is stored once, rising with its row; a bucket
holds the row numbers of its vectors, so a table costs 4 B per vector.
Keys and offsets take 4 bytes where the config and the vector count bound
them below 2^32. A bucket of at most W·B ids (a sketch's cell count) has
the cells of its sketch that its ids reach built on probe from its
insertion stream, in the exact state that incremental per-insert updates
would have produced. A *heavy* bucket, one of more ids, is also kept as
its finished sketch, computed in closed form whenever a
:class:`NodeIndex` is built. A probe therefore routes at
most W·B ids or takes W·B cells per (query, table), however skewed the
data, and the heavy sketches take at most 16 B per vector per table.

Both aggregation modes probe a whole query batch with one walk: one
``searchsorted`` of the batch's n·L keys finds every bucket, table-major,
then query order, with its span in ``rows``, and one gather reads the
spans' rows. The sketch mode takes the cells of the finished sketch of a
bucket that is heavy by its span's length alone, and routes the others'
ids to their cells: one sort of one key per arrival (its result cell, its
table, its index among the batch's arrivals) groups each cell's arrivals in
stream order and each result cell's cells in table order. A cell that one
arrival reaches holds (id, 1), and the cells that two or more reach are
replayed as 1×1 sketches by one insert. It folds the cells into the batch's
stack of merged sketches and never holds a W·B-cell sketch per bucket
found. The exact mode sorts one key per walked row, query and row
together, in place; each run of equal keys is one (query, row) pair's
count, and only those distinct pairs read their ids, already ascending
within each query.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import cached_property

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
from .sketch import TopkapiSketch, merge_cells, row_seeds_from_master

_INDEX_MAGIC = 0x58494C53  # "SLIX"
_INDEX_VERSION = 4
_HEADER = struct.Struct("<IIQIIQQ")

#: The most vectors one index holds: its row numbers are u32.
MAX_VECTORS = 2**32 - 1


class IndexFileError(SketchLshError):
    """A saved index file is truncated or malformed."""


# one table's buckets on their own: sorted addresses, stream offsets, ids
BucketTable = namedtuple("BucketTable", "addrs offsets ids")


def _column_types(config: LshConfig, vector_count: int) -> tuple[np.dtype, np.dtype]:
    """The key and offset columns' dtypes, from the config and the vector
    count alone: u32 keys when every key t·R + address is below L·R ≤ 2^32,
    and u32 offsets when the largest, the row count L·n, is below 2^32;
    u64 otherwise."""
    narrow_keys = config.num_tables * config.table_range <= 1 << 32
    narrow_offsets = config.num_tables * vector_count < 1 << 32
    return np.dtype("<u4" if narrow_keys else "<u8"), np.dtype("<u4" if narrow_offsets else "<u8")


def _row_bound(vector_count: int, error: type[SketchLshError]) -> None:
    """Raise ``error`` if ``vector_count`` vectors overflow the u32 row numbers."""
    if vector_count > MAX_VECTORS:
        raise error(
            f"{vector_count} vectors on one rank: an index numbers its rows in u32, "
            f"so it holds at most {MAX_VECTORS}; split the data over more ranks"
        )


def _table_bases(config: LshConfig, dtype: np.dtype) -> np.ndarray:
    """The first key of each table, t·R, in the key column's ``dtype``:
    every one is below L·R, so it fits."""
    bases = np.arange(config.num_tables, dtype=np.uint64) * np.uint64(config.table_range)
    return bases.astype(dtype)


def _table_bounds(keys: np.ndarray, config: LshConfig) -> np.ndarray:
    """Where each table's buckets start in the sorted ``keys``, then the
    directory's end, which ends the last table: its bound L·R may be 2^64,
    which no u64 holds."""
    return np.append(np.searchsorted(keys, _table_bases(config, keys.dtype)), keys.size)


def _defect(
    keys: np.ndarray, offsets: np.ndarray, rows: np.ndarray, ids: np.ndarray, config: LshConfig
) -> str | None:
    """The first invariant of :func:`preprocess` that a directory breaks, if any."""
    if offsets[0] != 0 or offsets[-1] != rows.size:
        return "offsets do not run from 0 to the row count"
    if (offsets[1:] <= offsets[:-1]).any():
        return "offsets do not strictly increase"
    if (keys[1:] <= keys[:-1]).any():
        return "keys do not strictly increase"
    if keys.size and int(keys[-1]) >= config.num_tables * config.table_range:
        return "key beyond the last table"
    held = np.diff(offsets[_table_bounds(keys, config)])
    wrong = np.flatnonzero(held != ids.size)
    if wrong.size:
        return f"table {wrong[0]} holds {held[wrong[0]]} rows for {ids.size} vectors"
    if rows.size and int(rows.max()) >= ids.size:
        return f"row {int(rows.max())} past the last of {ids.size} vectors"
    if ids.max(initial=0) == np.uint64(NULL_ID):  # the null id is the largest u64
        return "null id among the vectors"
    if (ids[1:] <= ids[:-1]).any():
        return "ids do not strictly increase"
    return None


class NodeIndex:
    """One node's LSH tables over its partition, as one bucket directory.

    ``keys`` (strictly rising) holds t·R + address for every occupied
    bucket of table t, and ``offsets`` (one per bucket plus the end) its
    stream's place in ``rows`` (u32, L·n of them, table by table, each
    bucket's in insertion order). A row r stands for the vector whose id is
    ``ids[r]`` (u64, n of them, strictly rising). Keys and offsets are u32
    or u64 as :func:`_column_types` derives from the config and n, in a
    built index and a loaded one alike. ``heavy_pos`` lists the directory
    positions of the heavy buckets, ascending, and ``heavy_sketches`` holds
    their finished sketches in the same order. Frozen after
    :func:`preprocess` returns; all reads (probes, exact counting) may then
    run fully concurrently.
    """

    def __init__(
        self,
        config: LshConfig,
        node_id: int,
        keys: np.ndarray,
        offsets: np.ndarray,
        rows: np.ndarray,
        ids: np.ndarray,
        rejected: tuple[tuple[VectorId, str], ...] = (),
    ):
        self.config = config
        self.node_id = node_id
        self.keys = keys
        self.offsets = offsets
        self.rows = rows
        self.ids = ids
        self.rejected = rejected
        self.row_seeds = row_seeds_from_master(config.master_seed, config.sketch_rows)
        self._bases = _table_bases(config, keys.dtype)
        self._bounds = _table_bounds(keys, config)
        self.heavy_pos, self.heavy_sketches = self._heavy_sketches()

    def _heavy_sketches(self) -> tuple[np.ndarray, TopkapiSketch]:
        """The directory positions of the heavy buckets, those of more ids
        than a sketch has cells, and a stack of their finished sketches
        (:meth:`TopkapiSketch.fill_distinct`) in the same order.

        Rows that do not strictly rise within a heavy bucket raise
        :class:`IndexFileError`: no build makes them, and as ids rise with
        rows, rising rows make each stream distinct, as the closed form needs.
        """
        cells = self.config.sketch_rows * self.config.sketch_cols
        sizes = np.diff(self.offsets)
        where = np.flatnonzero(sizes > cells)
        sketches = self.empty_sketch(where.size)
        if not where.size:
            return where, sketches
        lengths = sizes[where].astype(np.int64)
        rows = self._rows(self.offsets[where].astype(np.int64), lengths)
        rise = rows[1:] > rows[:-1]
        rise[np.cumsum(lengths[:-1]) - 1] = True  # each bucket's first row is exempt
        if not rise.all():
            raise IndexFileError(
                f"malformed index: rows do not rise within a bucket of more than {cells} ids"
            )
        ids = self.ids.take(rows)
        # per table, where its heavy buckets and their ids start; one closed
        # form per table keeps the scratch arrays to one table's heavy ids
        first = np.searchsorted(where, self._bounds)
        cut = np.append(0, np.cumsum(lengths))[first]
        for t in np.flatnonzero(np.diff(first)).tolist():
            heavy = slice(first[t], first[t + 1])
            sketches[heavy].fill_distinct(ids[cut[t] : cut[t + 1]], lengths[heavy])
        return where, sketches

    @property
    def vector_count(self) -> int:
        return int(self.ids.size)

    @property
    def tables(self) -> list[BucketTable]:
        """Each table's buckets on their own, derived from the directory on
        every call: its keys rebased to u64 addresses, its offsets rebased
        to i64, and its ids gathered through its rows."""
        bounds = self._bounds.tolist()
        starts = self.offsets[self._bounds].tolist()
        return [
            BucketTable(
                addrs=(self.keys[bounds[t] : bounds[t + 1]] - self._bases[t]).astype(np.uint64),
                offsets=self.offsets[bounds[t] : bounds[t + 1] + 1].astype(np.int64) - starts[t],
                ids=self.ids[self.rows[starts[t] : starts[t + 1]]],
            )
            for t in range(self.config.num_tables)
        ]

    @cached_property
    def hash_family(self) -> HashFamily:
        """The hash family of this index's config, built on first use: a
        query batch hashes with it, and a load does not pay for it."""
        return HashFamily.from_config(self.config)

    @property
    def occupied_slots(self) -> list[int]:
        return np.diff(self._bounds).tolist()

    # -- probing -----------------------------------------------------------------

    def empty_sketch(self, members: int | None = None) -> TopkapiSketch:
        """An empty sketch, or with ``members=n`` an empty stack of n."""
        return TopkapiSketch(
            self.config.sketch_rows, self.config.sketch_cols, self.row_seeds, members
        )

    def _walk(self, addresses: np.ndarray) -> tuple[np.ndarray, ...]:
        """The occupied buckets that the batch's (n, L) integer ``addresses``
        find, table-major, then query order: the query of each, its directory
        position, its span in ``rows``, start and length (i64), and its
        table. Anything but an integer ndarray of that shape with every
        address below ``table_range``, such as a list, an array of floats or
        bools, or a negative address, is a :class:`ConfigError`."""
        num_tables = self.config.num_tables
        if not isinstance(addresses, np.ndarray):
            raise ConfigError(f"addresses must be an ndarray, not a {type(addresses).__name__}")
        if addresses.dtype.kind not in "iu" or addresses.shape[1:] != (num_tables,):
            raise ConfigError(
                f"expected an (n, {num_tables}) integer address matrix, "
                f"got {addresses.dtype} of shape {addresses.shape}"
            )
        if addresses.size and (
            addresses.min() < 0 or int(addresses.max()) >= self.config.table_range
        ):
            raise ConfigError("address out of table range")
        # (L, n) keys in the key column's dtype, which holds every key below L·R
        probe = addresses.T.astype(self.keys.dtype) + self._bases[:, None]
        pos = np.searchsorted(self.keys, probe)
        found = pos < self.keys.size
        found[found] = self.keys[pos[found]] == probe[found]
        tables, queries = np.nonzero(found)
        pos = pos[found]
        # in i64: u32 or u64 offsets mixed with i64 positions would give floats
        starts = self.offsets[pos].astype(np.int64)
        return queries, pos, starts, self.offsets[pos + 1].astype(np.int64) - starts, tables

    def _rows(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The row numbers of the streams that start at ``starts`` in
        ``rows`` and run ``lengths`` rows (both i64), back to back: u32,
        by which ``ids.take`` gathers about twice as fast as ``[]`` does."""
        first = np.cumsum(lengths) - lengths  # where each stream starts in the output
        take = np.repeat(starts - first, lengths)
        take += np.arange(take.size)
        return self.rows[take]

    def local_candidates(self, addresses: np.ndarray) -> TopkapiSketch:
        """Merges of this node's addressed bucket sketches for a query batch.

        ``addresses`` is the batch's (n, L) integer ndarray, and only that:
        a single (L,) row or a list is a :class:`ConfigError`. The result is
        an (n, W, B) stack whose member q merges query q's buckets; it goes to
        the reduce and the extraction as it is.

        A cell of a bucket's sketch evolves on the arrivals routed to it
        alone, so the probe keeps only the cells that arrivals reach. A heavy
        bucket, one whose span holds more than W·B ids, brings the cells of
        its finished sketch; every other bucket brings its ids, each routed to
        one cell per sketch row. One in-place sort of one key per arrival, by
        result cell, table and index among the batch's arrivals, puts the
        arrivals of each cell of each found bucket side by side, in stream
        order; a batch whose keys would pass 2^63 is a :class:`ConfigError`.
        A cell that one arrival reaches holds (id, 1), the counter
        rule's first step; the cells that two or more reach are replayed as a
        stack of 1×1 sketches, one insert for the whole batch. The cells are
        then folded into the result: a result cell takes its contributions
        table after table (the merge rule is not associative), so round r
        merges every cell's r-th one; there are at most L rounds, and a
        (null, 0) cell is the merge identity. So the probe's memory follows
        the arrivals, not the buckets found times W·B. No distance
        computation is involved anywhere on this path.
        """
        rows, cols = self.config.sketch_rows, self.config.sketch_cols
        cells, num_tables = rows * cols, self.config.num_tables
        queries, pos, starts, lengths, tables = self._walk(addresses)  # checks addresses first
        heavy = lengths > cells
        light = np.flatnonzero(~heavy)
        span = lengths[light]
        j = np.searchsorted(self.heavy_pos, pos[heavy])
        # the arrivals: the light streams' ids, then the heavy sketches' cells
        arrivals = np.concatenate(
            [self.ids.take(self._rows(starts[light], span)), self.heavy_sketches.ids[j].reshape(-1)]
        )
        walked, total = span.sum(), arrivals.size
        # keys stay under n·L·W·B·A; a batch of n·L·(W·B)² > 2^63 is refused too
        if len(addresses) * num_tables * cells * max(cells, total) > 1 << 63:
            raise ConfigError(
                f"a batch of {len(addresses)} queries is too large to probe at once "
                f"with {num_tables} tables of {rows}x{cols} sketches; split it"
            )
        counts = np.ones(total, dtype=np.uint64)
        counts[walked:] = self.heavy_sketches.counts[j].reshape(-1)
        # one key per (light id, sketch row) and per heavy cell, ((q·W·B + c)·L + t)·A + i
        # for its query q, sketch cell c = row·B + column, table t and arrival index i
        bucket = (queries * (cells * num_tables) + tables) * total
        stride = num_tables * total
        key = self.empty_sketch(0)._row_bins(arrivals[:walked])
        key += np.arange(rows) * cols
        key *= stride
        key += (np.repeat(bucket[light], span) + np.arange(walked))[:, None]
        heavy_at = walked + np.arange(j.size) * cells  # each heavy sketch's first arrival
        heavy_key = (bucket[heavy] + heavy_at)[:, None] + np.arange(cells) * (stride + 1)
        key = np.concatenate([key.ravel(), heavy_key.ravel()])
        key.sort()
        cell = key // total  # (q·W·B + c)·L + t: one cell of one found bucket
        at = np.subtract(key, cell * total, out=key)  # the arrival's index, in place of its key
        edge = np.ones(cell.size + 1, dtype=bool)  # a cell's first arrival, then the end
        np.not_equal(cell[1:], cell[:-1], out=edge[1:-1])
        edge = np.flatnonzero(edge)
        reached = np.diff(edge)  # arrivals per cell
        again = reached > 1
        edge = edge[:-1]
        # each cell's result cell q·W·B + c; its cells lie side by side, in table order
        target = cell[edge] // num_tables
        arrivals, counts = arrivals.take(at), counts.take(at[edge])
        del key, cell, at  # freed before the replay allocates: they set the peak
        ids = arrivals[edge]
        replay = TopkapiSketch(1, 1, self.row_seeds[:1], np.count_nonzero(again))
        slots = np.repeat(np.arange(len(replay)), reached[again])
        replay.insert_many(arrivals[np.repeat(again, reached)], slots)
        ids[again] = replay.ids.reshape(-1)
        counts[again] = replay.counts.reshape(-1)
        # merging (a, c) then (a, d) is merging (a, c + d): sum each run of one id first
        run = np.ones(target.size, dtype=bool)
        run[1:] = (target[1:] != target[:-1]) | (ids[1:] != ids[:-1])
        run = np.flatnonzero(run)
        target, ids, counts = target[run], ids[run], np.add.reduceat(counts, run)
        first = np.flatnonzero(np.append(True, target[1:] != target[:-1]))
        depth = np.diff(np.append(first, target.size))  # runs per result cell
        merged = self.empty_sketch(len(addresses))
        out_ids, out_counts = merged.ids.reshape(-1), merged.counts.reshape(-1)
        for r in range(int(depth.max(initial=0))):
            at = first[depth > r] + r
            cell = target[at]
            out_ids[cell], out_counts[cell] = merge_cells(
                out_ids[cell], out_counts[cell], ids[at], counts[at]
            )
        return merged

    def exact_candidates(self, addresses: np.ndarray) -> ExactCounts:
        """Exact per-id occurrence counts over each query's addressed buckets,
        for the batch's (n, L) integer address ndarray, validated as
        :meth:`local_candidates` validates it: one count for every id of
        every span the walk finds.

        Each walked row becomes one key q·n + row, and one in-place sort of
        the keys puts the walks of each (query, row) pair side by side; a run
        of equal keys is that pair's count. Ids rise with their rows, so the
        runs already order each query's ids: one ``searchsorted`` against
        q·n cuts them into queries, and only the runs gather their ids.
        """
        queries, _, starts, lengths, _ = self._walk(addresses)
        # u64 holds every key: n and the query count are below 2^32, so q·n + row < 2^64
        n = np.uint64(self.vector_count)
        keys = np.repeat(queries.astype(np.uint64) * n, lengths)
        keys += self._rows(starts, lengths)
        keys.sort()
        edge = np.ones(keys.size + 1, dtype=bool)  # a run's first key, then the end
        np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
        at = np.flatnonzero(edge)
        runs = keys[at[:-1]]  # one per (query, row) pair: none if n = 0, so runs % n is safe
        indptr = np.searchsorted(runs, np.arange(len(addresses) + 1, dtype=np.uint64) * n)
        return ExactCounts(indptr, self.ids.take(runs % n), np.diff(at).astype(np.uint64))

    # -- persistence ----------------------------------------------------------------

    def save(self, path) -> None:
        """Write the index: the header, then the ``ids``, ``keys``,
        ``offsets`` and ``rows`` columns, little-endian. The u64 ids come
        first, where the 40-byte header leaves them 8-byte aligned: a
        loaded index gathers from them on every probe.

        No sketch is stored: probes rebuild them from the id streams, and
        :meth:`load` the heavy ones, bit for bit.
        """
        key_type, offset_type = _column_types(self.config, self.vector_count)
        with open(path, "wb") as f:
            f.write(
                _HEADER.pack(
                    _INDEX_MAGIC,
                    _INDEX_VERSION,
                    self.config.fingerprint(),
                    self.node_id,
                    self.config.num_tables,
                    self.vector_count,
                    self.keys.size,
                )
            )
            columns = (self.ids, self.keys, self.offsets, self.rows)
            for column, dtype in zip(columns, ("<u8", key_type, offset_type, "<u4")):
                f.write(np.ascontiguousarray(column, dtype=dtype).data)

    @classmethod
    def load(cls, path, config: LshConfig) -> "NodeIndex":
        """Reload a saved index; the caller supplies the deployment config.

        Every length is checked against the file before it is read, and the
        columns against the invariants :func:`preprocess` guarantees, rising
        ids among them, so a truncated or malformed file raises
        :class:`IndexFileError`; so do a row past the vector count, and rows
        that do not rise within a heavy bucket, which the closed form of its
        sketch rules out. The columns are read-only views of the file's
        bytes; the heavy sketches are built from them.
        """
        with open(path, "rb") as f:
            data = f.read()
        if len(data) < _HEADER.size:
            raise IndexFileError(f"index file truncated in its header: {len(data)} bytes")
        magic, version, fp, node_id, num_tables, vector_count, n_keys = _HEADER.unpack_from(data)
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
        _row_bound(vector_count, IndexFileError)
        # the columns' starts and the file's size from the header's counts,
        # in Python ints: a damaged count can be near 2^64
        key_type, offset_type = _column_types(config, vector_count)
        n_rows = num_tables * vector_count
        keys_at = _HEADER.size + 8 * vector_count
        offsets_at = keys_at + key_type.itemsize * n_keys
        rows_at = offsets_at + offset_type.itemsize * (n_keys + 1)
        size = rows_at + 4 * n_rows
        if len(data) != size:
            raise IndexFileError(
                f"index file truncated: its header needs {size} bytes, file has {len(data)}"
                if len(data) < size
                else "trailing bytes after the rows"
            )
        ids = np.frombuffer(data, "<u8", vector_count, _HEADER.size)
        keys = np.frombuffer(data, key_type, n_keys, keys_at)
        offsets = np.frombuffer(data, offset_type, n_keys + 1, offsets_at)
        rows = np.frombuffer(data, "<u4", n_rows, rows_at)
        defect = _defect(keys, offsets, rows, ids, config)
        if defect:
            raise IndexFileError(f"malformed index: {defect}")
        return cls(config, node_id, keys, offsets, rows, ids)


def preprocess(partition: DatasetPartition, config: LshConfig) -> NodeIndex:
    """Build a node's index over its partition.

    Every valid vector is routed into one bucket per table (its combined
    slot hash under that table's seed); the partition's rows are hashed
    with one :meth:`HashFamily.addresses` call. Empty vectors are rejected
    with a per-record report and indexing continues. A partition of more
    vectors than u32 rows can number is a :class:`ConfigError`.
    """
    _row_bound(len(partition), ConfigError)
    rows = partition.rows
    empty = rows.indptr[1:] == rows.indptr[:-1]
    rejected = tuple((vid, "empty vector") for vid in partition.ids[empty].tolist())
    ids = partition.ids[~empty]
    if rejected:
        # an empty row starts where the next one does, so dropping its start
        # from the row pointer drops the row and leaves the indices as they are
        rows = SparseRows(rows.indptr[np.append(~empty, True)], rows.indices, rows.dim)
    # one row of keys per table; the address matrix is freed before the sorts
    sorted_keys = HashFamily.from_config(config).addresses(rows).T.copy()
    table_rows = np.empty(sorted_keys.shape, dtype="<u4")
    for t, (column, base) in enumerate(zip(sorted_keys, _table_bases(config, np.uint64))):
        order = np.argsort(column, kind="stable")  # stable keeps arrival order
        table_rows[t] = order
        np.add(column[order], base, out=column)
    flat = sorted_keys.ravel()
    first = np.ones(flat.size + 1, dtype=bool)  # of its bucket, then the end
    np.not_equal(flat[1:], flat[:-1], out=first[1:-1])  # tables differ in key
    offsets = np.flatnonzero(first)
    key_type, offset_type = _column_types(config, ids.size)
    return NodeIndex(
        config=config,
        node_id=partition.node_id,
        keys=flat[offsets[:-1]].astype(key_type),
        offsets=offsets.astype(offset_type),
        rows=table_rows.ravel(),
        ids=ids,
        rejected=rejected,
    )
