"""Per-node LSH index: one bucket table per hash table over a data partition.

Buckets are addressed by the combined hash of a vector's slots for that
table. A probed bucket is always observed as a fixed-size heavy-hitter
sketch of the ids inserted there, so bucket aggregation never depends on
how skewed the underlying bucket is.

Storage note: bucket contents are kept columnar, as per-table sorted
(address -> id stream) arrays, and a bucket's sketch is materialized on
probe by replaying its insertion stream. The replay reproduces the exact
sketch state that incremental per-insert updates would have produced, while
keeping the resident footprint near the raw data size even when the address
space is much larger than the partition. The same storage serves the exact
(sketch-free) aggregation mode directly.

Probes work on a whole query batch: per table, every bucket the batch
addresses is built in one stacked sketch insert, and the table is folded
into the batch's stack of merged sketches with one merge. Saving builds the
bucket sketches the same way, a bounded chunk of buckets at a time.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DatasetPartition,
    LshConfig,
    SketchLshError,
    VectorId,
)
from .hashing import HashFamily
from .sketch import TopkapiSketch, row_seeds_from_master

_INDEX_MAGIC = 0x58494C53  # "SLIX"
_INDEX_VERSION = 1
_BUCKET_SECTION = b"XBKT"
_HEADER = struct.Struct("<IIQIIQ")
_U64 = struct.Struct("<Q")
_COUNTS = struct.Struct("<QQ")
# Buckets per stacked sketch build in save; bounds the stack's memory.
_SAVE_CHUNK = 512


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

    def streams(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Id streams of the buckets at positions ``pos``, back to back, and
        for each id the index into ``pos`` of the bucket it belongs to."""
        starts = self.offsets[pos]
        lengths = self.offsets[pos + 1] - starts
        slots = np.repeat(np.arange(pos.size), lengths)
        first = np.cumsum(lengths) - lengths  # where each stream starts in the output
        take = np.arange(int(lengths.sum())) + (starts - first)[slots]
        return self.ids[take], slots

    def bucket(self, addr: int) -> np.ndarray:
        pos = np.searchsorted(self.addrs, np.uint64(addr))
        if pos >= self.addrs.size or self.addrs[pos] != np.uint64(addr):
            return self.ids[:0]
        return self.ids[self.offsets[pos] : self.offsets[pos + 1]]

    @property
    def occupied(self) -> int:
        return int(self.addrs.size)


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

    def sketch_at(self, table: int, addr: int) -> TopkapiSketch:
        """The bucket sketch at (table, addr); empty sketch if unoccupied."""
        s = self.empty_sketch()
        ids = self.tables[table].bucket(addr)
        if ids.size:
            s.insert_many(ids)
        return s

    def local_candidates(self, addresses: np.ndarray) -> TopkapiSketch:
        """Merges of this node's addressed bucket sketches for a query batch.

        ``addresses`` is the batch's (n, L) address matrix; the result is an
        (n, W, B) stack whose member q merges query q's buckets. A single
        (L,) row gives a single sketch. Per table, every addressed bucket is
        built in one stacked insert and the table is folded into the stack
        with one merge. Tables fold left to right (the merge rule is not
        associative); empty buckets contribute the identity. No distance
        computation is involved anywhere on this path.
        """
        addresses = np.asarray(addresses, dtype=np.uint64)
        num_tables = self.config.num_tables
        if addresses.ndim not in (1, 2) or addresses.shape[-1] != num_tables:
            raise ConfigError(
                f"expected {num_tables} addresses per query, got {addresses.shape}"
            )
        if addresses.size and int(addresses.max()) >= self.config.table_range:
            raise ConfigError("address out of table range")
        batch = addresses.reshape(-1, num_tables)
        merged = self.empty_sketch(len(batch))
        for t, tb in enumerate(self.tables):
            if tb.occupied == 0:
                continue  # identity contribution
            pos = np.searchsorted(tb.addrs, batch[:, t])
            hit = tb.addrs[np.minimum(pos, tb.occupied - 1)] == batch[:, t]
            if not hit.any():
                continue
            items, slots = tb.streams(pos[hit])
            table = self.empty_sketch(len(batch))
            table.insert_many(items, np.flatnonzero(hit)[slots])
            merged = merged.merge(table)
        return merged if addresses.ndim == 2 else merged[0]

    def exact_candidates(self, addresses: np.ndarray) -> dict[int, int]:
        """Exact per-id occurrence counts over the addressed buckets."""
        addresses = np.asarray(addresses, dtype=np.uint64)
        if addresses.shape != (self.config.num_tables,):
            raise ConfigError(
                f"expected {self.config.num_tables} addresses, got {addresses.shape}"
            )
        chunks = [
            self.tables[t].bucket(int(addresses[t]))
            for t in range(self.config.num_tables)
        ]
        allids = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint64)
        if allids.size == 0:
            return {}
        uniq, counts = np.unique(allids, return_counts=True)
        return {int(i): int(c) for i, c in zip(uniq, counts)}

    @property
    def occupied_slots(self) -> list[int]:
        return [t.occupied for t in self.tables]

    # -- persistence ----------------------------------------------------------------

    def save(self, path) -> None:
        """Write the index: header, per-bucket sketches, then raw buckets.

        The sketch section is self-contained (header + per occupied address
        one serialized sketch). The trailing bucket section carries the
        columnar id streams, which the exact aggregation mode needs and from
        which probe-time sketches are rebuilt bit-identically.
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
                f.write(_U64.pack(tb.occupied))
                for lo in range(0, tb.occupied, _SAVE_CHUNK):
                    pos = np.arange(lo, min(lo + _SAVE_CHUNK, tb.occupied))
                    sketches = self.empty_sketch(pos.size)
                    sketches.insert_many(*tb.streams(pos))
                    records = np.frombuffer(sketches.to_bytes(), dtype=np.uint8)
                    addrs = tb.addrs[pos].astype("<u8").view(np.uint8)
                    f.write(np.hstack([addrs.reshape(pos.size, 8), records.reshape(pos.size, -1)]))
            f.write(_BUCKET_SECTION)
            for tb in self.tables:
                f.write(_COUNTS.pack(tb.addrs.size, tb.ids.size))
                f.write(tb.addrs.astype("<u8").tobytes())
                f.write(tb.offsets.astype("<i8").tobytes())
                f.write(tb.ids.astype("<u8").tobytes())

    @classmethod
    def load(cls, path, config: LshConfig) -> "NodeIndex":
        """Reload a saved index; the caller supplies the deployment config.

        Every section and length is checked against the file before it is
        read, so a truncated or malformed file raises :class:`IndexFileError`.
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
            raise IndexFileError(f"unsupported index version {version}")
        if fp != config.fingerprint():
            raise ConfigError("index was built under a different configuration")
        if num_tables != config.num_tables:
            raise ConfigError("table count mismatch against configuration")
        # Skip the sketch section (buckets rebuild it exactly). Its records
        # have one length per config, so one check per table covers them.
        rows = config.sketch_rows
        sketch_bytes = TopkapiSketch(rows, config.sketch_cols, np.zeros(rows)).to_bytes()
        record = 8 + len(sketch_bytes)  # address, then the serialized sketch
        prefix = np.frombuffer(sketch_bytes[:4], dtype=np.uint8)
        for t in range(num_tables):
            (n_occ,) = reader.unpack(_U64, f"sketch table {t}")
            records = reader.array(np.uint8, n_occ * record, f"sketch table {t}")
            if not np.array_equal(
                records.reshape(n_occ, record)[:, 8:12], np.broadcast_to(prefix, (n_occ, 4))
            ):
                raise IndexFileError(f"bad sketch record length in table {t}")
        if bytes(reader.array(np.uint8, 4, "bucket section tag")) != _BUCKET_SECTION:
            raise IndexFileError("missing bucket section")
        tables = []
        for t in range(num_tables):
            what = f"bucket table {t}"
            n_addr, n_ids = reader.unpack(_COUNTS, what)
            addrs = reader.array("<u8", n_addr, what).astype(np.uint64)
            offsets = reader.array("<i8", n_addr + 1, what).astype(np.int64)
            ids = reader.array("<u8", n_ids, what).astype(np.uint64)
            tables.append(_TableBuckets(addrs=addrs, offsets=offsets, ids=ids))
        if reader.off != len(data):
            raise IndexFileError("trailing bytes after the bucket section")
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


def _hash_chunk(family, pairs):
    ok_ids: list[int] = []
    rows: list[np.ndarray] = []
    rejected: list[tuple[int, str]] = []
    for vid, vec in pairs:
        if vec.nnz == 0:
            rejected.append((vid, "empty vector"))
            continue
        rows.append(family.addresses(vec))
        ok_ids.append(vid)
    return ok_ids, rows, rejected


def preprocess(
    partition: DatasetPartition, config: LshConfig, workers: int = 1
) -> NodeIndex:
    """Build a node's index over its partition.

    Every valid vector is routed into one bucket per table (its combined
    slot hash under that table's seed). Empty vectors are rejected with a
    per-record report and indexing continues. With ``workers`` > 1 the
    hashing runs data-parallel over contiguous chunks; chunk outputs are
    concatenated in order, so the result is identical to the serial build.
    """
    n = len(partition.vectors)
    family = HashFamily.from_config(config)
    if workers <= 1 or n < 2 * workers:
        ok_ids, rows, rejected = _hash_chunk(family, partition.vectors)
    else:
        step = (n + workers - 1) // workers
        chunks = [partition.vectors[i : i + step] for i in range(0, n, step)]
        ok_ids, rows, rejected = [], [], []
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for cids, crows, crej in pool.map(lambda c: _hash_chunk(family, c), chunks):
                ok_ids.extend(cids)
                rows.extend(crows)
                rejected.extend(crej)
    if rows:
        addr_matrix = np.vstack(rows)  # (n_ok, num_tables)
        ids = np.asarray(ok_ids, dtype=np.uint64)
    else:
        addr_matrix = np.empty((0, config.num_tables), dtype=np.uint64)
        ids = np.empty(0, dtype=np.uint64)
    tables = [
        _TableBuckets.build(addr_matrix[:, t].copy(), ids)
        for t in range(config.num_tables)
    ]
    return NodeIndex(
        config=config,
        node_id=partition.node_id,
        tables=tables,
        vector_count=int(ids.size),
        rejected=tuple(rejected),
    )
