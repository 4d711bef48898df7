"""Fixed-size mergeable heavy-hitter sketch used in place of LSH buckets.

The sketch is a W x B grid of cells, each holding one candidate item and a
majority-vote counter. Inserting routes the item to one cell per row (by a
seeded per-row hash) and applies the classic increment / decrement / replace
rule, so a cell's counter retains any item that strictly outnumbers all
other arrivals to that cell. Two sketches built over disjoint streams merge
cell-by-cell into a sketch for the combined stream, which is what allows
bucket aggregation across machines by pairwise merging instead of shipping
bucket contents.

Memory is fixed at construction: no insert ever grows the sketch.

A sketch may carry a leading axis: a stack of n same-shape sketches that
share one row-seed vector, held as (n, W, B) arrays. Merging is cell by
cell, so it works on stacks as written, and a stack serializes to the
concatenation of its members' records.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._bits import mix64, range_map, seed_stream
from .core import NULL_ID, SketchLshError

_TAG_ROW_SEEDS = 0x70FFA
_NULL = np.uint64(NULL_ID)

# Items per pass of the cell kernel; bounds its Python lists on long streams.
_INSERT_CHUNK = 1 << 16


class ShapeMismatchError(SketchLshError, ValueError):
    """Sketches with different shapes or row seeds cannot be merged."""


class SketchFormatError(SketchLshError, ValueError):
    """Bytes that are not a well-formed serialized sketch or stack."""


def row_seeds_from_master(master_seed: int, rows: int) -> np.ndarray:
    """Per-row hash seeds for one deployment's sketches.

    Derived from the master seed under a tag of their own, so bucket
    addressing and in-sketch routing stay uncorrelated. Every sketch in one
    index must share these seeds or merging is meaningless.
    """
    return seed_stream(master_seed, rows, tag=_TAG_ROW_SEEDS)


@dataclass(frozen=True)
class HeavyHitterSet:
    """Ranked heavy-hitter report: (item id, estimated count), descending."""

    entries: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.entries)


class TopkapiSketch:
    """W x B grid of (candidate id, majority counter) cells.

    Cells start as (null, 0); a zero counter means the cell's id slot is up
    for grabs. The grid never grows, so its memory footprint after any
    number of inserts equals the footprint at construction.

    With ``members=n`` the object is a stack of n such grids, ``ids`` and
    ``counts`` of shape (n, W, B). A stack is a sequence of sketches:
    ``len`` gives n, and indexing gives members as views of the stack.
    """

    __slots__ = ("rows", "cols", "row_seeds", "ids", "counts")

    def __init__(
        self, rows: int, cols: int, row_seeds: np.ndarray, members: int | None = None
    ):
        if rows < 1 or cols < 1:
            raise ValueError("sketch shape must be at least 1x1")
        row_seeds = np.asarray(row_seeds, dtype=np.uint64)
        if row_seeds.shape != (rows,):
            raise ValueError(f"expected {rows} row seeds, got shape {row_seeds.shape}")
        shape = (rows, cols) if members is None else (members, rows, cols)
        self.rows = rows
        self.cols = cols
        self.row_seeds = row_seeds
        self.ids = np.full(shape, _NULL, dtype=np.uint64)
        self.counts = np.zeros(shape, dtype=np.uint64)

    # -- construction helpers -------------------------------------------------

    def _with_cells(self, ids: np.ndarray, counts: np.ndarray) -> "TopkapiSketch":
        """A sketch of this one's shape and seeds over the given cell arrays."""
        out = TopkapiSketch.__new__(TopkapiSketch)
        out.rows, out.cols, out.row_seeds = self.rows, self.cols, self.row_seeds
        out.ids, out.counts = ids, counts
        return out

    @classmethod
    def stack(cls, sketches: Sequence["TopkapiSketch"]) -> "TopkapiSketch":
        """One stack holding copies of ``sketches`` (single, same-shape) in order."""
        members = list(sketches)
        if not members:
            raise ValueError("cannot stack zero sketches")
        first = members[0]
        for s in members:
            if s.is_stack or not first.same_shape(s):
                raise ShapeMismatchError("stacked sketches must share shape and row seeds")
        return first._with_cells(
            np.stack([s.ids for s in members]), np.stack([s.counts for s in members])
        )

    # -- stacks ------------------------------------------------------------------

    @property
    def is_stack(self) -> bool:
        return self.ids.ndim == 3

    def __len__(self) -> int:
        if not self.is_stack:
            raise TypeError("a single sketch has no length; only stacks do")
        return self.ids.shape[0]

    def __getitem__(self, key) -> "TopkapiSketch":
        """Member ``key`` of a stack as a view; a slice or index array gives a sub-stack."""
        if not self.is_stack:
            raise TypeError("a single sketch cannot be indexed; only stacks can")
        return self._with_cells(self.ids[key], self.counts[key])

    def __iter__(self):
        return (self[q] for q in range(len(self)))

    def __bool__(self) -> bool:
        """Always true, like any object; a stack's member count is ``len``."""
        return True

    # -- stream ingestion ------------------------------------------------------

    def _row_bins(self, items: np.ndarray) -> np.ndarray:
        """Cell column per (item, row), shape (len(items), rows)."""
        h = mix64(mix64(items)[:, None] ^ self.row_seeds[None, :])
        return range_map(h, self.cols).astype(np.int64)

    def insert(self, item: int) -> None:
        """Ingest one item id into a single sketch. Not internally synchronized."""
        self.insert_many(np.asarray([item], dtype=np.uint64))

    def insert_many(self, items: np.ndarray, slots: np.ndarray | None = None) -> None:
        """Ingest a stream of item ids in order.

        On a stack, ``slots[i]`` names the member that receives ``items[i]``
        (required there, rejected on a single sketch). Equivalent to
        repeated :meth:`insert` into each member. Cells are independent, so
        the routing of every (item, row) event to its cell vectorizes; the
        counter rule is order-sensitive, so one plain-Python pass over the
        touched cells, held as lists, applies it in stream order before one
        scatter writes them back.
        """
        items = np.ascontiguousarray(items, dtype=np.uint64)
        if self.is_stack:
            if slots is None:
                raise ValueError("inserting into a stack needs one slot per item")
            slots = np.asarray(slots, dtype=np.int64)
            if slots.shape != items.shape:
                raise ValueError(f"{items.size} items but slots of shape {slots.shape}")
            if slots.size and (slots.min() < 0 or slots.max() >= len(self)):
                raise ValueError(f"slot out of range for a stack of {len(self)}")
        elif slots is not None:
            raise ValueError("slots apply to stacks only")
        cell_base = np.arange(self.rows, dtype=np.int64) * self.cols
        for lo in range(0, items.size, _INSERT_CHUNK):
            chunk = items[lo : lo + _INSERT_CHUNK]
            cells = self._row_bins(chunk) + cell_base  # (chunk, rows), item-major
            if slots is not None:
                cells += slots[lo : lo + _INSERT_CHUNK, None] * (self.rows * self.cols)
            touched, event_cell = np.unique(cells.ravel(), return_inverse=True)
            ids = self.ids.flat[touched].tolist()
            counts = self.counts.flat[touched].tolist()
            for k, x in zip(event_cell.tolist(), np.repeat(chunk, self.rows).tolist()):
                if ids[k] == x:
                    counts[k] += 1
                elif counts[k] == 0:
                    ids[k] = x
                    counts[k] = 1
                else:
                    counts[k] -= 1
            self.ids.flat[touched] = np.array(ids, dtype=np.uint64)
            self.counts.flat[touched] = np.array(counts, dtype=np.uint64)

    # -- merging ---------------------------------------------------------------

    def same_shape(self, other: "TopkapiSketch") -> bool:
        """Same grid, same row seeds and, for stacks, the same member count."""
        return (
            self.ids.shape == other.ids.shape
            and np.array_equal(self.row_seeds, other.row_seeds)
        )

    def merge(self, other: "TopkapiSketch") -> "TopkapiSketch":
        """Combine two sketches over disjoint streams into one.

        Cell rule: equal ids sum their counters; differing ids keep the
        larger-count id with the difference of the counters. A counter tie
        between two real ids resolves to the smaller id with counter 0 (no
        surviving majority); the null placeholder always loses, which makes
        the empty sketch an exact identity element. The result is
        independent of argument order, cell for cell.
        """
        if not self.same_shape(other):
            raise ShapeMismatchError(
                "cannot merge sketches with different shape or row seeds"
            )
        a_ids, a_cnt = self.ids, self.counts
        b_ids, b_cnt = other.ids, other.counts
        same = a_ids == b_ids
        a_wins = a_cnt > b_cnt
        b_wins = b_cnt > a_cnt
        # Tie between differing ids: the null placeholder loses, otherwise
        # the smaller id survives with counter 0.
        tie_ids = np.where(
            a_ids == _NULL, b_ids, np.where(b_ids == _NULL, a_ids, np.minimum(a_ids, b_ids))
        )
        ids = np.where(same, a_ids, np.where(a_wins, a_ids, np.where(b_wins, b_ids, tie_ids)))
        with np.errstate(over="ignore"):
            summed = a_cnt + b_cnt
            diff = np.where(a_wins, a_cnt - b_cnt, b_cnt - a_cnt)
        return self._with_cells(ids, np.where(same, summed, diff))

    # -- reporting ---------------------------------------------------------------

    def heavy_hitters(self, threshold: int = 0) -> HeavyHitterSet:
        """All cell candidates with counter strictly above ``threshold``.

        An id surviving in several rows reports its maximum counter. Sorted
        by descending count, ties broken by ascending id.
        """
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.is_stack:
            raise TypeError("heavy hitters are per sketch; index the stack first")
        mask = self.counts > np.uint64(threshold)
        best: dict[int, int] = {}
        for i, c in zip(self.ids[mask].tolist(), self.counts[mask].tolist()):
            if i == NULL_ID:
                continue
            if c > best.get(i, -1):
                best[i] = c
        ranked = sorted(best.items(), key=lambda ic: (-ic[1], ic[0]))
        return HeavyHitterSet(entries=tuple(ranked))

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Length-prefixed little-endian wire form; bit-exact round trip.

        Layout: u32 payload length, then u32 rows, u32 cols, rows x u64 row
        seed, then rows*cols cells of (u64 id, u64 count) in row-major order.
        A stack gives its members' records back to back.
        """
        header = struct.pack("<II", self.rows, self.cols) + self.row_seeds.astype(
            "<u8"
        ).tobytes()
        payload_len = len(header) + 16 * self.rows * self.cols
        prefix = np.frombuffer(struct.pack("<I", payload_len) + header, dtype=np.uint8)
        cells = np.empty(self.ids.shape + (2,), dtype="<u8")
        cells[..., 0] = self.ids
        cells[..., 1] = self.counts
        members = cells.reshape(-1, 2 * self.rows * self.cols).view(np.uint8)
        head = np.broadcast_to(prefix, (members.shape[0], prefix.size))
        return np.concatenate([head, members], axis=1).tobytes()

    @classmethod
    def from_bytes(
        cls, buf: bytes, offset: int = 0, members: int | None = None
    ) -> tuple["TopkapiSketch", int]:
        """Parse one serialized sketch, or with ``members=n`` a stack of n
        records of one shape and seeds; returns (sketch, offset past it).
        Malformed bytes raise :class:`SketchFormatError`."""
        if len(buf) - offset < 12:
            raise SketchFormatError("truncated sketch: missing length prefix or shape")
        plen, rows, cols = struct.unpack_from("<III", buf, offset)
        if rows < 1 or cols < 1:
            raise SketchFormatError(f"sketch shape {rows}x{cols} is empty")
        expected = 8 + 8 * rows + 16 * rows * cols
        if plen != expected:
            raise SketchFormatError(f"sketch payload length {plen} != expected {expected}")
        record = 4 + plen
        n = 1 if members is None else members
        if n < 1:
            raise SketchFormatError("a sketch stack needs at least one member")
        end = offset + n * record
        if len(buf) < end:
            raise SketchFormatError("truncated sketch payload")
        records = np.frombuffer(buf, dtype=np.uint8, count=n * record, offset=offset)
        records = records.reshape(n, record)
        head = 12 + 8 * rows
        if not np.array_equal(records[:, :head], np.broadcast_to(records[0, :head], (n, head))):
            raise SketchFormatError("stacked sketch records differ in shape or row seeds")
        row_seeds = np.frombuffer(buf, dtype="<u8", count=rows, offset=offset + 12)
        cells = np.ascontiguousarray(records[:, head:]).view("<u8").reshape(n, rows, cols, 2)
        out = cls(rows, cols, row_seeds.astype(np.uint64), members)
        out.ids[:] = cells[..., 0].reshape(out.ids.shape)
        out.counts[:] = cells[..., 1].reshape(out.ids.shape)
        return out, end

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TopkapiSketch):
            return NotImplemented
        return (
            self.same_shape(other)
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.counts, other.counts)
        )

    def __repr__(self) -> str:
        occupied = int(np.count_nonzero(self.ids != _NULL))
        shape = "x".join(map(str, self.ids.shape))
        return f"TopkapiSketch({shape}, {occupied} occupied cells)"

