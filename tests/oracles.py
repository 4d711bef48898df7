"""Independent oracles and helpers that test modules import by name.

Kept out of ``conftest.py`` so that ``from oracles import ...`` resolves to
this file even when another suite's ``conftest`` is loaded in the same
pytest session.
"""

from __future__ import annotations

import hashlib
import math
import socket
import struct
import threading
from collections import Counter, defaultdict
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from sketchlsh import hashing
from sketchlsh._bits import UINT64_MAX, mix64, range_map
from sketchlsh.core import NULL_ID, ConfigError, EmptyVectorError, SketchLshError, SparseVector
from sketchlsh.dataio import (
    DatasetManifest,
    PartitionInfo,
    RecordIssue,
    _utf8_text,
    parse_record,
)


def reference_fingerprint(config) -> int:
    """An :class:`LshConfig`'s digest folded field by field: every field as
    a u64, in declaration order, each xored into the accumulator and mixed."""
    acc = np.uint64(0xC0F1C0F1C0F1C0F1)
    for f in fields(config):
        acc = mix64(acc ^ np.uint64(getattr(config, f.name)))
    return int(acc)


def exact_jaccard(a: SparseVector, b: SparseVector) -> float:
    """Two-pointer sorted-list intersection; independent of any hashing."""
    ai, bi = a.indices.tolist(), b.indices.tolist()
    i = j = inter = 0
    while i < len(ai) and j < len(bi):
        if ai[i] == bi[j]:
            inter += 1
            i += 1
            j += 1
        elif ai[i] < bi[j]:
            i += 1
        else:
            j += 1
    union = len(ai) + len(bi) - inter
    return inter / union if union else 0.0


def minhash(v: SparseVector, seed: int) -> int:
    """Minimum of a seeded 64-bit hash over the vector's active indices: the
    per-seed reference of :func:`hashing.minhash_many`."""
    if v.nnz == 0:
        raise EmptyVectorError("cannot MinHash a vector with no active indices")
    return int(hashing._index_hashes(v.indices, np.uint64(seed)).min())


def pair_with_jaccard(rng, shared: int, only_a: int, only_b: int, dim: int = 1 << 17):
    """Two vectors with exactly `shared` common indices; J = s/(s+only_a+only_b)."""
    idx = rng.choice(dim, size=shared + only_a + only_b, replace=False)
    s = idx[:shared]
    a = idx[shared : shared + only_a]
    b = idx[shared + only_a :]
    va = SparseVector(np.sort(np.concatenate([s, a])), dim)
    vb = SparseVector(np.sort(np.concatenate([s, b])), dim)
    return va, vb


def doph_hashes(v: SparseVector, n_bins: int, seed: int) -> np.ndarray:
    """Densified one-permutation hashing of one vector: n_bins hash values
    in one pass, the per-vector reference of :meth:`HashFamily.addresses`.

    Each active index is hashed exactly once and routed to bin
    floor(hash * n_bins / 2**64); each bin keeps its minimum. Empty bins copy
    the value of the nearest non-empty bin, scanning circularly left or right
    according to a seeded per-bin coin.
    """
    if v.nnz == 0:
        raise EmptyVectorError("cannot hash a vector with no active indices")
    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    h = hashing._index_hashes(v.indices, np.uint64(seed))  # read at call time: tests patch it
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

    coins = hashing._densify_coins(np.uint64(seed), n_bins)
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


def slot_hashes(family, v: SparseVector) -> np.ndarray:
    """All (num_tables x hashes_per_table) hash slots of one vector from the
    batched densification; row i holds the slots feeding table i."""
    num_tables, k = family.num_tables, family.hashes_per_table
    rows = hashing._densified_rows(
        np.array([0, v.nnz]), v.indices, num_tables * k, family.perm_seed, family.coins
    )
    return rows.reshape(num_tables, k)


def reference_addresses(family, vectors) -> np.ndarray:
    """Per-vector (n, L) bucket addresses: one :func:`doph_hashes` call per
    vector and one :func:`table_address` fold per table."""
    num_tables, k = family.num_tables, family.hashes_per_table
    out = np.empty((len(vectors), num_tables), dtype=np.uint64)
    for i, v in enumerate(vectors):
        slots = doph_hashes(v, num_tables * k, family.perm_seed).reshape(num_tables, k)
        for t in range(num_tables):
            out[i, t] = table_address(slots[t], int(family.table_seeds[t]), family.table_range)
    return out


class BlockLineReader:
    """Iterate lines of a file via sequential reads of ``block_size`` bytes.

    Splits lines at ``\n`` itself, carrying a line cut by a block over to
    the next, and drops each line's trailing run of ``\r``; a last line
    without a newline is a line too. Bytes that are not UTF-8 decode as lone
    surrogates (``surrogateescape``), so a line keeps its original bytes;
    ``_utf8_text`` tells such a line apart.
    """

    def __init__(self, path, block_size: int = 4 << 20):
        self.path = Path(path)
        self.block_size = block_size

    def __iter__(self) -> Iterator[str]:
        remainder = b""
        with open(self.path, "rb") as f:
            while block := f.read(self.block_size):
                lines = (remainder + block).split(b"\n")
                remainder = lines.pop()
                for raw in lines:
                    yield raw.decode("utf-8", errors="surrogateescape").rstrip("\r")
        if remainder:
            yield remainder.decode("utf-8", errors="surrogateescape").rstrip("\r")


def per_line_split(path, m: int, dim: int | None = None):
    """The partition files' bytes and the manifest of an m-way round-robin
    split of ``path``, built line by line from :class:`BlockLineReader`:
    line i, re-encoded and ended by ``\n``, goes to partition i mod m."""
    parts = [b""] * m
    counts = [0] * m
    for i, line in enumerate(BlockLineReader(path)):
        parts[i % m] += line.encode("utf-8", errors="surrogateescape") + b"\n"
        counts[i % m] += 1
    manifest = DatasetManifest(
        total=sum(counts),
        dim=dim if dim is not None else per_line_dim(path),
        m=m,
        checksum="sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest(),
        partitions=tuple(
            PartitionInfo(path=f"part-{r:05d}.txt", records=counts[r], offset=r)
            for r in range(m)
        ),
    )
    return parts, manifest


def partition_vectors(part) -> tuple[tuple[int, SparseVector], ...]:
    """A :class:`DatasetPartition` as (vector id, SparseVector) pairs, row by row."""
    bounds = part.rows.indptr.tolist()
    return tuple(
        (vid, SparseVector(part.rows.indices[lo:hi], part.rows.dim))
        for vid, lo, hi in zip(part.ids.tolist(), bounds, bounds[1:])
    )


def per_line_partition(path, dim, offset: int = 0, m: int = 1):
    """A partition file parsed line by line with :func:`parse_record`:
    (vector id, indices) per kept line, and a :class:`RecordIssue` per
    rejected one."""
    rows, issues = [], []
    for j, line in enumerate(BlockLineReader(path)):
        vid = offset + j * m
        try:
            _, vec = parse_record(_utf8_text(line, j), dim=dim, line_no=j)
            rows.append((vid, vec.indices.tolist()))
        except SketchLshError as exc:
            issues.append(RecordIssue(vector_id=vid, line_no=j, message=str(exc)))
    return rows, issues


def per_line_dim(path) -> int:
    """The dimension a dataset implies: 1 + its largest parseable index, at least 1."""
    widest = -1
    for line in BlockLineReader(path):
        try:
            _, vec = parse_record(_utf8_text(line))
        except SketchLshError:
            continue
        widest = max(widest, int(vec.indices[-1]))
    return max(widest + 1, 1)


def per_line_queries(path, dim):
    """A query file read line by line from :class:`BlockLineReader`, so
    lines end only at ``\n``, and parsed with :func:`parse_record`, blank
    lines skipped; the first other rejected line raises its error."""
    pairs = []
    for i, line in enumerate(BlockLineReader(path)):
        if line.strip():
            pairs.append((i, parse_record(_utf8_text(line, i), dim=dim, line_no=i)[1]))
    return pairs


def exact_counter(stream: Iterable[int]) -> Counter:
    """Exact multiset count of a stream of ids: the reference the sketch's
    heavy hitters are checked against."""
    return Counter(int(x) for x in stream)


def cell_arrival_counts(sketch, stream: np.ndarray) -> dict[tuple[int, int], Counter]:
    """Exact per-cell arrival multisets for a stream routed like the sketch."""
    bins = sketch._row_bins(np.asarray(stream, dtype=np.uint64))
    cells: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for i, item in enumerate(stream.tolist()):
        for r in range(sketch.rows):
            cells[(r, int(bins[i, r]))][int(item)] += 1
    return cells


def replay_cells(sketch, stream: np.ndarray) -> dict[tuple[int, int], tuple[int, int]]:
    """Independent dict-based replay of the per-cell counter state machine."""
    bins = sketch._row_bins(np.asarray(stream, dtype=np.uint64))
    state: dict[tuple[int, int], list[int]] = {}
    for i, item in enumerate(stream.tolist()):
        for r in range(sketch.rows):
            key = (r, int(bins[i, r]))
            cur = state.get(key)
            if cur is None:
                state[key] = [int(item), 1]
            elif cur[0] == int(item):
                cur[1] += 1
            elif cur[1] == 0:
                state[key] = [int(item), 1]
            else:
                cur[1] -= 1
    return {k: (v[0], v[1]) for k, v in state.items()}


def replayed_sketch(template, stream: np.ndarray):
    """A new single sketch shaped like ``template`` holding the dict replay of
    ``stream``, cell for cell (ids of cells counted down to 0 included)."""
    from sketchlsh.sketch import TopkapiSketch

    out = TopkapiSketch(template.rows, template.cols, template.row_seeds)
    for (r, b), (item, count) in replay_cells(out, np.asarray(stream, dtype=np.uint64)).items():
        out.ids[r, b] = item
        out.counts[r, b] = count
    return out


def insert_per_event(sketch, items: np.ndarray, slots: np.ndarray | None = None) -> None:
    """The per-event insert that :meth:`TopkapiSketch.insert_many` must equal
    bit for bit: every (item, row) event is routed to its cell, one
    ``np.unique`` numbers the touched cells, and one plain-Python pass
    applies the counter rule to every event in stream order. ``slots``
    names each item's member on a stack."""
    items = np.ascontiguousarray(items, dtype=np.uint64)
    cells = sketch._row_bins(items) + np.arange(sketch.rows, dtype=np.int64) * sketch.cols
    if slots is not None:
        cells += np.asarray(slots, dtype=np.int64)[:, None] * (sketch.rows * sketch.cols)
    touched, event_cell = np.unique(cells.ravel(), return_inverse=True)
    ids = sketch.ids.flat[touched].tolist()
    counts = sketch.counts.flat[touched].tolist()
    for k, x in zip(event_cell.tolist(), np.repeat(items, sketch.rows).tolist()):
        if ids[k] == x:
            counts[k] += 1
        elif counts[k] == 0:
            ids[k] = x
            counts[k] = 1
        else:
            counts[k] -= 1
    sketch.ids.flat[touched] = np.array(ids, dtype=np.uint64)
    sketch.counts.flat[touched] = np.array(counts, dtype=np.uint64)


def reference_merge_cells(
    a_ids: np.ndarray, a_cnt: np.ndarray, b_ids: np.ndarray, b_cnt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The merge rule spelled out case by case, which
    :func:`sketchlsh.sketch.merge_cells` must equal bit for bit: equal ids
    sum their counters, a larger counter wins with the difference, and a
    counter tie between differing ids keeps the smaller id with counter 0,
    the null placeholder always losing."""
    null = np.uint64(NULL_ID)
    same = a_ids == b_ids
    a_wins = a_cnt > b_cnt
    b_wins = b_cnt > a_cnt
    # Tie between differing ids: the null placeholder loses, otherwise
    # the smaller id survives with counter 0.
    tie_ids = np.where(
        a_ids == null, b_ids, np.where(b_ids == null, a_ids, np.minimum(a_ids, b_ids))
    )
    ids = np.where(same, a_ids, np.where(a_wins, a_ids, np.where(b_wins, b_ids, tie_ids)))
    diff = np.maximum(a_cnt, b_cnt) - np.minimum(a_cnt, b_cnt)
    return ids, np.where(same, a_cnt + b_cnt, diff)


def table_buckets(addrs: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One table's columns built on their own from its address column and
    the partition's ids: the sorted distinct addresses, the offsets of
    their id streams, and the ids in bucket order. One stable argsort keeps
    each bucket's ids in arrival order."""
    order = np.argsort(addrs, kind="stable")
    sorted_addrs = addrs[order]
    if not sorted_addrs.size:
        return np.empty(0, dtype=np.uint64), np.zeros(1, dtype=np.int64), ids[order]
    starts = np.concatenate(([0], np.flatnonzero(sorted_addrs[1:] != sorted_addrs[:-1]) + 1))
    offsets = np.concatenate((starts, [sorted_addrs.size])).astype(np.int64)
    return sorted_addrs[starts], offsets, ids[order]


def bucket_ids(table, addr: int) -> np.ndarray:
    """The id stream of the bucket at ``addr`` in a table's columns; empty
    if no bucket is there."""
    pos = int(np.searchsorted(table.addrs, np.uint64(addr)))
    if pos >= table.addrs.size or table.addrs[pos] != np.uint64(addr):
        return table.ids[:0]
    return table.ids[table.offsets[pos] : table.offsets[pos + 1]]


def bucket_sketch(index, t: int, addr: int):
    """The sketch of one bucket, (table t, address addr), on its own."""
    sketch = index.empty_sketch()
    ids = bucket_ids(index.tables[t], addr)
    if ids.size:
        sketch.insert_many(ids)
    return sketch


def replayed_candidates(index, batch: np.ndarray):
    """The replay probe of a batch, heavy buckets included: per table, every
    addressed bucket's id stream goes into one stacked per-event insert
    (:func:`insert_per_event`), and the table folds into the batch's stack
    with one dense merge, left to right."""
    batch = np.asarray(batch, dtype=np.uint64)
    merged = index.empty_sketch(len(batch))
    for t, table in enumerate(index.tables):
        streams = [bucket_ids(table, addr) for addr in batch[:, t].tolist()]
        items = np.concatenate(streams)
        if items.size:
            sketch = index.empty_sketch(len(batch))
            insert_per_event(sketch, items, np.repeat(np.arange(len(batch)), [s.size for s in streams]))
            merged = merged.merge(sketch)
    return merged


def exact_count_map(index, row) -> dict[int, int]:
    """One query's exact per-id counts over its L addressed buckets, looked
    up one address at a time."""
    counts: Counter = Counter()
    for t, addr in enumerate(np.asarray(row).tolist()):
        counts.update(bucket_ids(index.tables[t], addr).tolist())
    return dict(counts)


def count_maps(counts) -> list[dict[int, int]]:
    """An :class:`ExactCounts` as one {id: count} dict per query."""
    bounds = counts.indptr.tolist()
    ids, cnt = counts.ids.tolist(), counts.counts.tolist()
    return [dict(zip(ids[lo:hi], cnt[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def merge_count_maps(a: list[dict], b: list[dict]) -> list[dict[int, int]]:
    """Per query, the two count maps with the counts of shared ids added."""
    return [dict(Counter(x) + Counter(y)) for x, y in zip(a, b)]


def count_payload(maps: list[dict[int, int]]) -> bytes:
    """The count wire payload of per-query count maps, packed with struct:
    every query's entry count, then every id, then every count, ids
    ascending within a query."""
    items = [sorted(m.items()) for m in maps]
    lengths = [len(x) for x in items]
    ids = [i for x in items for i, _ in x]
    cnt = [c for x in items for _, c in x]
    return struct.pack(f"<{len(lengths) + 2 * len(ids)}Q", *lengths, *ids, *cnt)


def column_width(values) -> int:
    """The byte width of a sketch record's column: the fewest of 1, 2, 4
    and 8 bytes that hold its largest value, 1 for no value."""
    top = max((int(v) for v in values), default=0)
    return min(w for w in (1, 2, 4, 8) if top < 1 << (8 * w))


def dense_record(stack) -> bytes:
    """A sketch or stack in the dense layout, packed with struct: u32 one
    member's length past this word, u32 W, u32 B, W x u64 row seeds, then
    every cell's (u64 id, u64 count) in cell order (member, row, column).
    The sketch record's former layout; no decoder accepts it."""
    w, b = stack.rows, stack.cols
    pairs = zip(stack.ids.ravel().tolist(), stack.counts.ravel().tolist())
    cells = [word for pair in pairs for word in pair]
    seeds = stack.row_seeds.tolist()
    return struct.pack(f"<3I{w + len(cells)}Q", 8 + 8 * w + 16 * w * b, w, b, *seeds, *cells)


def record_bound(sketch) -> int:
    """The most bytes the record of a sketch or stack of n x W x B cells
    can take: 8 + 8W of header, the cell mask, two width bytes and every
    cell at 16 bytes."""
    cells = sketch.ids.size
    return 8 + 8 * sketch.rows + 16 * cells + (cells + 7) // 8 + 2


def masked_payload(stack) -> bytes:
    """The record of a sketch or stack, packed with struct from its dense
    record: u32 W, u32 B and the row seeds, one bit per cell that is not
    (null, 0), least significant bit first and zero-padded, the byte
    widths of the id and count columns (the fewest of 1, 2, 4, 8 that hold
    the column), then those cells' ids, then their counts."""
    head = 12 + 8 * stack.rows
    record = dense_record(stack)
    words = struct.unpack_from(f"<{2 * stack.ids.size}Q", record, head)
    cells = list(zip(words[0::2], words[1::2]))
    kept = [(i, cell) for i, cell in enumerate(cells) if cell != (NULL_ID, 0)]
    mask = bytearray((len(cells) + 7) // 8)
    for i, _ in kept:
        mask[i // 8] |= 1 << (i % 8)
    out = record[4:head] + bytes(mask)  # the dense header without its length word
    columns = [[ident for _, (ident, _) in kept], [count for _, (_, count) in kept]]
    widths = [column_width(c) for c in columns]
    out += bytes(widths)
    for column, w in zip(columns, widths):
        out += struct.pack(f"<{len(column)}{'BHIQ'[w.bit_length() - 1]}", *column)
    return out


def exact_counts(maps: list[dict[int, int]]):
    """An :class:`ExactCounts` holding one {id: count} dict per query."""
    from sketchlsh.cluster import ExactCounts

    return ExactCounts.from_bytes(count_payload(maps), len(maps))


def cell_bounds(stack, exact, row_seeds: np.ndarray) -> None:
    """Assert the majority-vote bounds on every cell of a reduced (n, W, B)
    sketch stack against exact mode's :class:`ExactCounts` for the same batch.

    Query q's id x arrives c_x times, its exact count, in its one cell of
    every row, routed by ``row_seeds``. A cell that holds id h with counter
    k after N arrivals must have k <= c_h, c_h - k <= N - c_h, k = N (mod 2)
    and 2·c_x <= N - k for every x != h. One bucket's stream keeps them and
    every merge of two streams does, so they hold through the heavy copies,
    the cross-table fold, the wire codec and the reduce alike.
    """
    from sketchlsh.sketch import TopkapiSketch

    rows, cols = stack.rows, stack.cols
    assert np.array_equal(stack.row_seeds, row_seeds) and len(exact) == len(stack)
    # each (entry, row) arrival's cell in the flattened stack, and its count
    cell = TopkapiSketch(rows, cols, row_seeds)._row_bins(exact.ids)
    cell += (exact.queries()[:, None] * rows + np.arange(rows)) * cols
    arrivals = np.broadcast_to(exact.counts.astype(np.int64)[:, None], cell.shape)
    holder, k = stack.ids.reshape(-1), stack.counts.reshape(-1).astype(np.int64)
    held = exact.ids[:, None] == holder[cell]
    total, c_h, rival = (np.zeros(holder.size, dtype=np.int64) for _ in range(3))
    np.add.at(total, cell, arrivals)
    np.add.at(c_h, cell[held], arrivals[held])
    np.maximum.at(rival, cell[~held], arrivals[~held])
    broken = {
        "counter above the holder's count": k > c_h,
        "holder's count past N - c_h + k": c_h - k > total - c_h,
        "counter and N of opposite parity": (total - k) % 2 != 0,
        "another id at 2·c_x > N - k": 2 * rival > total - k,
    }
    for what, where in broken.items():
        at = np.flatnonzero(where)
        assert not at.size, f"cell {np.unravel_index(at[0], stack.ids.shape)}: {what}"


def top_k_counts(count_map: dict[int, int], k: int) -> tuple[tuple[int, int], ...]:
    """The k largest counts of one map, ties by ascending id, zeros dropped."""
    ranked = sorted(((i, c) for i, c in count_map.items() if c > 0), key=lambda ic: (-ic[1], ic[0]))
    return tuple(ranked[:k])


def two_stage_noise_max(rng, n: int, q: float, num_tables: int, trials: int) -> np.ndarray:
    """The largest of n Binomial(L, q) background counts per trial, drawn in
    two stages: how many of the n items collide at all, then a count from
    the pmf conditioned on a collision for each of them. Only the items with
    a collision can hold the maximum. The pmf's ``math.comb`` terms overflow
    a float near L = 1,700, so keep L small."""
    noise_max = np.zeros(trials, dtype=np.int64)
    if n > 0 and q > 0:
        q_any = 1 - (1 - q) ** num_tables
        nonzero = rng.binomial(n, q_any, size=trials)
        ks = np.arange(1, num_tables + 1)
        pmf = np.array(
            [math.comb(num_tables, int(k)) * q**k * (1 - q) ** (num_tables - k) for k in ks]
        )
        pmf = pmf / pmf.sum()
        for t in np.flatnonzero(nonzero):
            noise_max[t] = int(rng.choice(ks, size=int(nonzero[t]), p=pmf).max())
    return noise_max


def free_ports(count: int) -> list[int]:
    socks = []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def run_tcp_threads(world_size: int, fn, io_timeout: float = 20.0):
    """Run fn(transport) per rank over a localhost TCP mesh, one thread each."""
    from sketchlsh.cluster import TcpTransport

    members = [("127.0.0.1", p) for p in free_ports(world_size)]
    results = [None] * world_size
    errors: list[BaseException] = []

    def runner(rank: int) -> None:
        transport = None
        try:
            transport = TcpTransport(rank, members, io_timeout=io_timeout)
            results[rank] = fn(transport)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            if transport is not None:
                transport.close()

    threads = [threading.Thread(target=runner, args=(r,)) for r in range(world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
