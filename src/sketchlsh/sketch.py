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
cell, so it works on stacks as written, and a stack serializes to one
record, which is also what travels between ranks: the shared shape and row
seeds once, a bitmap of the cells that are not (null, 0), then those cells
only, each column at the fewest bytes that hold its largest value.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ._bits import mix64, range_map, seed_stream
from .core import NULL_ID, SketchLshError

_TAG_ROW_SEEDS = 0x70FFA
_NULL = np.uint64(NULL_ID)
# Byte widths a column of the sketch record may take.
_WIDTHS = (1, 2, 4, 8)

# Items per pass of the cell kernel; bounds its Python lists on long streams.
_INSERT_CHUNK = 1 << 16


class ShapeMismatchError(SketchLshError, ValueError):
    """Sketches with different shapes or row seeds cannot be merged."""


class SketchFormatError(SketchLshError, ValueError):
    """Bytes that are not a well-formed serialized sketch or stack."""


def _width(column: np.ndarray) -> int:
    """The fewest bytes of ``_WIDTHS`` that hold every value of a u64
    column; 1 for an empty one."""
    top = int(column.max(initial=0))
    return next(w for w in _WIDTHS if top < 1 << (8 * w))


def row_seeds_from_master(master_seed: int, rows: int) -> np.ndarray:
    """Per-row hash seeds for one deployment's sketches.

    Derived from the master seed under a tag of their own, so bucket
    addressing and in-sketch routing stay uncorrelated. Every sketch in one
    index must share these seeds or merging is meaningless.
    """
    return seed_stream(master_seed, rows, tag=_TAG_ROW_SEEDS)


def merge_cells(
    a_ids: np.ndarray, a_cnt: np.ndarray, b_ids: np.ndarray, b_cnt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The merge rule of :meth:`TopkapiSketch.merge` on same-shape cell
    arrays: the larger counter's id survives, a tie keeps the smaller id
    (the null id is the largest u64), and the counter is the sum for equal
    ids, else the difference."""
    ids = np.where(a_cnt > b_cnt, a_ids, np.where(b_cnt > a_cnt, b_ids, np.minimum(a_ids, b_ids)))
    diff = np.maximum(a_cnt, b_cnt) - np.minimum(a_cnt, b_cnt)
    return ids, np.where(a_ids == b_ids, a_cnt + b_cnt, diff)


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
        """Member ``key`` of a stack as a view; a slice or index array gives a
        sub-stack. Iterating a stack reads its members through here, up to
        the ``IndexError`` past the last."""
        if not self.is_stack:
            raise TypeError("a single sketch cannot be indexed; only stacks can")
        return self._with_cells(self.ids[key], self.counts[key])

    def __bool__(self) -> bool:
        """Always true, like any object; a stack's member count is ``len``."""
        return True

    # -- stream ingestion ------------------------------------------------------

    def _row_bins(self, items: np.ndarray) -> np.ndarray:
        """Cell column per (item, row), shape (len(items), rows)."""
        h = mix64(mix64(items)[:, None] ^ self.row_seeds[None, :])
        return range_map(h, self.cols).view(np.int64)  # each is below 2^32

    def insert_many(self, items: np.ndarray, slots: np.ndarray | None = None) -> None:
        """Ingest a stream of item ids in order.

        On a stack, ``slots[i]`` names the member that receives ``items[i]``
        (required there, rejected on a single sketch). Equivalent to
        inserting the items one at a time, each into its member; not
        internally synchronized. Cells are independent, so
        every (item, row) event is routed to its cell at once, and one
        stable argsort groups the events by cell in stream order. A cell
        whose counter starts at 0 alternates between (x, 1) and (x, 0) under
        the counter rule, unless an arrival at an even place (2nd, 4th, ...)
        equals the one before it: after k arrivals it holds (last id, 1) for
        odd k and (second-to-last id, 0) for even k (Boyer and Moore's
        MJRTY). Such cells are set in closed form; only the others go
        through one plain-Python pass over their events, in stream order.
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
            order = np.argsort(cells.ravel(), kind="stable")  # by cell, then stream order
            cell = cells.ravel()[order]
            arrival = chunk[order // self.rows]
            first = np.empty(cell.size + 1, dtype=bool)  # of its cell's arrivals, then the end
            first[0] = first[-1] = True
            np.not_equal(cell[1:], cell[:-1], out=first[1:-1])
            bounds = np.flatnonzero(first)
            starts, ends = bounds[:-1], bounds[1:]
            touched = cell[starts]
            slow = np.take(self.counts, touched) != 0
            # an arrival equal to the one before it, at an even place of its cell
            again = np.flatnonzero(arrival[1:] == arrival[:-1]) + 1
            owner = np.searchsorted(starts, again, side="right") - 1
            slow[owner[(again - starts[owner]) % 2 == 1]] = True
            k = ends - starts  # arrivals per touched cell
            odd = k & 1
            ids = arrival[ends - 2 + odd]  # the last arrival for odd k, else the one before
            counts = odd.view(np.uint64)
            if slow.any():  # the other cells: the counter rule, event by event
                rest = np.flatnonzero(slow)
                held = np.take(self.ids, touched[rest]).tolist()
                count = np.take(self.counts, touched[rest]).tolist()
                events = np.repeat(np.arange(rest.size), k[rest]).tolist()
                for c, x in zip(events, arrival[np.repeat(slow, k)].tolist()):
                    if held[c] == x:
                        count[c] += 1
                    elif count[c] == 0:
                        held[c] = x
                        count[c] = 1
                    else:
                        count[c] -= 1
                ids[rest] = np.array(held, dtype=np.uint64)
                counts[rest] = np.array(count, dtype=np.uint64)
            np.put(self.ids, touched, ids)
            np.put(self.counts, touched, counts)

    def fill_distinct(self, ids: np.ndarray, lengths: np.ndarray) -> None:
        """Fill this empty stack with the sketches of the streams ``ids``,
        back to back and ``lengths`` long, one per member, each stream of
        distinct ids: the state :meth:`insert_many` would leave.

        Each cell of such a stream's sketch sees distinct arrivals, and
        under the majority rule k of them leave it at (last id, 1) if k is
        odd and at (second-to-last id, 0) if k is even (Boyer and Moore,
        MJRTY, 1981). One bincount and two ``np.maximum.at`` passes over the
        (id, row) arrivals give every cell.
        """
        rows, cols = self.rows, self.cols
        # each arrival's cell, arrival-major, so a cell's arrivals stay in stream order
        cell = self._row_bins(ids)
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
        self.ids.flat = np.where(holder >= 0, ids[holder // rows], _NULL)
        self.counts.flat = odd

    # -- merging ---------------------------------------------------------------

    def same_shape(self, other: "TopkapiSketch") -> bool:
        """Same grid, same row seeds and, for stacks, the same member count."""
        return (
            self.ids.shape == other.ids.shape
            and np.array_equal(self.row_seeds, other.row_seeds)
        )

    def merge(self, other: "TopkapiSketch") -> "TopkapiSketch":
        """Combine two sketches over disjoint streams into one.

        Cell rule (:func:`merge_cells`): the id with the larger counter
        survives, a tie keeps the smaller id, and the counter is the sum for
        equal ids, else the difference (0 on a tie: no surviving majority).
        The null id is the largest u64, so it loses every tie, which makes
        the empty sketch an exact identity element. The result is
        independent of argument order, cell for cell. An equal-id sum past
        2^64 - 1 wraps; the cluster's decoders bound every peer counter, so
        the reducers' merges cannot reach it.
        """
        if not self.same_shape(other):
            raise ShapeMismatchError(
                "cannot merge sketches with different shape or row seeds"
            )
        return self._with_cells(*merge_cells(self.ids, self.counts, other.ids, other.counts))

    # -- reporting ---------------------------------------------------------------

    def heavy_hitters(self, threshold: int = 0) -> tuple[tuple[int, int], ...]:
        """All cell candidates with counter strictly above ``threshold``, as
        (item id, estimated count) pairs.

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
        return tuple(ranked)

    # -- serialization ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The sketch's record, little-endian; bit-exact round trip by
        :meth:`from_bytes`.

        Layout: u32 rows, u32 cols, rows x u64 row seed; then one bit per
        cell in cell order (member, row, column), set for a cell that is not
        (null, 0), packed 8 to a byte from the least significant bit and
        zero-padded; then a u8 id width and a u8 count width; then the ids
        of the set cells in cell order, then their counts, each column at
        its width: the fewest of 1, 2, 4 or 8 bytes that hold its largest
        value (1 for no set cell). A stack writes the header once, so a
        stack of one is a single sketch's record. A count-0 cell that holds
        a real id is written: it decides ties. So is a null cell with a
        counter above 0, which no insert or merge makes; the decoder
        rejects it.
        """
        live = (self.ids != _NULL) | (self.counts != 0)
        at = np.flatnonzero(live)  # one index pass serves both columns
        columns = [c.take(at) for c in (self.ids, self.counts)]
        widths = [_width(c) for c in columns]
        narrow = [c.astype(f"<u{w}") for c, w in zip(columns, widths)]
        head = struct.pack("<II", self.rows, self.cols) + self.row_seeds.astype("<u8").tobytes()
        return b"".join([head, np.packbits(live, bitorder="little"), bytes(widths)] + narrow)

    @classmethod
    def from_bytes(cls, buf: bytes, members: int | None = None) -> tuple["TopkapiSketch", int]:
        """Parse the record of :meth:`to_bytes` at the start of ``buf``: a
        single sketch, or with ``members=n`` a stack of n; returns (sketch,
        offset past the record). Malformed bytes raise
        :class:`SketchFormatError`: a buffer shorter than the header, mask
        and widths (checked before the sketch is allocated) or than the set
        cells, a set padding bit, a column width other than the fewest
        bytes that hold the column, or a set cell that holds the null id.
        So every stack has one record, and an accepted record re-encodes to
        its own bytes."""
        if len(buf) < 8:
            raise SketchFormatError("truncated sketch: missing shape")
        rows, cols = struct.unpack_from("<II", buf)
        if rows < 1 or cols < 1:
            raise SketchFormatError(f"sketch shape {rows}x{cols} is empty")
        n = 1 if members is None else members
        if n < 1:
            raise SketchFormatError("a sketch stack needs at least one member")
        head, n_cells = 8 + 8 * rows, n * rows * cols
        widths_at = head + (n_cells + 7) // 8
        if len(buf) < widths_at + 2:
            raise SketchFormatError(
                f"sketch record of {len(buf)} bytes is shorter than the {widths_at + 2} "
                f"of its header, cell mask and column widths"
            )
        bits = np.unpackbits(np.frombuffer(buf, np.uint8, widths_at - head, head), bitorder="little")
        if bits[n_cells:].any():
            raise SketchFormatError("a padding bit of the cell mask is set")
        live = bits[:n_cells].view(bool)
        p = int(np.count_nonzero(live))
        wid, wcount = buf[widths_at], buf[widths_at + 1]
        if wid not in _WIDTHS or wcount not in _WIDTHS:
            raise SketchFormatError(f"column widths {wid}, {wcount} not among {_WIDTHS}")
        ids_at = widths_at + 2
        end = ids_at + p * (wid + wcount)
        if len(buf) < end:
            raise SketchFormatError(f"truncated sketch cells: {p} set cells need {end} bytes")
        ids = np.frombuffer(buf, f"<u{wid}", p, ids_at).astype(np.uint64)
        counts = np.frombuffer(buf, f"<u{wcount}", p, ids_at + p * wid).astype(np.uint64)
        if (wid, wcount) != (_width(ids), _width(counts)):
            raise SketchFormatError(f"column widths {wid}, {wcount} are not the fewest bytes")
        if np.any(ids == _NULL):
            raise SketchFormatError("a null cell is marked set or carries a count")
        out = cls(rows, cols, np.frombuffer(buf, "<u8", rows, 8).astype(np.uint64), members)
        live = live.reshape(out.ids.shape)
        out.ids[live] = ids
        out.counts[live] = counts
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

