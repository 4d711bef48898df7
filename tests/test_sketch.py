import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchlsh import sketch as sketch_module
from sketchlsh.core import MAX_TABLES, NULL_ID
from sketchlsh.sketch import (
    ShapeMismatchError,
    SketchFormatError,
    TopkapiSketch,
    merge_cells,
    row_seeds_from_master,
)
from sketchlsh.synthetic import adversarial_stream, zipf_stream

from oracles import (
    cell_arrival_counts,
    exact_counter,
    insert_per_event,
    column_width,
    dense_record,
    masked_payload,
    record_bound,
    reference_merge_cells,
    replay_cells,
    replayed_sketch,
)

SEEDS4 = row_seeds_from_master(77, 4)


def fresh(rows=4, cols=16, master=77):
    return TopkapiSketch(rows, cols, row_seeds_from_master(master, rows))


class TestConstruction:
    def test_new_sketch_all_null_zero(self):
        s = fresh(4, 16)
        assert s.ids.shape == (4, 16)
        assert np.all(s.ids == np.uint64(NULL_ID))
        assert np.all(s.counts == 0)

    def test_new_sketch_reports_nothing(self):
        s = fresh()
        for threshold in (0, 1, 5):
            assert len(s.heavy_hitters(threshold)) == 0

    def test_merge_with_new_sketch_is_identity(self, rng):
        s = fresh()
        s.insert_many(rng.integers(0, 50, size=400, dtype=np.uint64))
        empty = fresh()
        assert s.merge(empty) == s
        assert empty.merge(s) == s


class TestInsert:
    def test_single_insert_occupies_one_cell_per_row(self):
        s = fresh()
        s.insert_many(np.array([42], dtype=np.uint64))
        bins = s._row_bins(np.array([42], dtype=np.uint64))[0]
        for r in range(s.rows):
            assert int(s.ids[r, bins[r]]) == 42
            assert int(s.counts[r, bins[r]]) == 1
        assert int(np.sum(s.ids != np.uint64(NULL_ID))) == s.rows

    def test_three_step_state_machine(self):
        # x, then colliding y, then x again: up, down, then increment -> (x, 1)
        s = TopkapiSketch(1, 1, row_seeds_from_master(5, 1))  # force collisions
        for item in (8, 9, 8):
            s.insert_many(np.array([item], dtype=np.uint64))
        assert int(s.ids[0, 0]) == 8
        assert int(s.counts[0, 0]) == 1

    def test_insert_many_equals_sequential_inserts(self, rng):
        stream = rng.integers(0, 30, size=500, dtype=np.uint64)
        a = fresh()
        a.insert_many(stream)
        b = fresh()
        for x in stream[:, None]:
            b.insert_many(x)
        assert a == b

    def test_matches_independent_replay(self, rng):
        s = fresh(3, 8)
        stream = rng.integers(0, 40, size=2000, dtype=np.uint64)
        expected = replay_cells(s, stream)
        s.insert_many(stream)
        for (r, b), (hh, count) in expected.items():
            assert int(s.counts[r, b]) == count
            if count > 0:
                assert int(s.ids[r, b]) == hh

    def test_frequent_item_survives_singletons(self, rng):
        # 1 item at frequency 100 among 50 distinct singletons
        s = fresh(4, 16)
        stream = np.concatenate(
            [np.full(100, 7, dtype=np.uint64), np.arange(1000, 1050, dtype=np.uint64)]
        )
        stream = rng.permutation(stream)
        s.insert_many(stream)
        cells = cell_arrival_counts(s, stream)
        bins = s._row_bins(np.array([7], dtype=np.uint64))[0]
        for r in range(4):
            cell = cells[(r, int(bins[r]))]
            others = sum(c for i, c in cell.items() if i != 7)
            assert int(s.ids[r, bins[r]]) == 7
            assert int(s.counts[r, bins[r]]) >= 100 - others


class TestCellKernel:
    """The cell kernel against the independent dict replay, on streams whose
    arrivals all land in one cell per row."""

    @staticmethod
    def _one_cell_ids(s, count, rng):
        """``count`` distinct ids that all route to column 0 of row 0."""
        pool = rng.permutation(1 << 20).astype(np.uint64)
        pool = pool[s._row_bins(pool)[:, 0] == 0]
        assert pool.size >= count
        return pool[:count]

    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_single_cell_streams_match_replay(self, rng, kind):
        stream = adversarial_stream(rng, 3000, kind)
        narrow = TopkapiSketch(4, 1, SEEDS4)  # one column: every arrival, every row
        narrow.insert_many(stream)
        assert narrow == replayed_sketch(narrow, stream)

        wide = TopkapiSketch(4, 32, SEEDS4)
        values, inverse = np.unique(stream, return_inverse=True)
        colliding = self._one_cell_ids(wide, values.size, rng)[inverse]
        wide.insert_many(colliding)
        assert wide == replayed_sketch(wide, colliding)
        assert len(set(wide._row_bins(colliding)[:, 0].tolist())) == 1

    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_stack_members_match_their_own_replay(self, rng, kind):
        # three members fed one interleaved stream; each must end where the
        # replay of its own sub-stream ends
        stream = adversarial_stream(rng, 3000, kind)
        slots = rng.integers(0, 3, size=stream.size)
        stack = TopkapiSketch(4, 1, SEEDS4, members=3)
        stack.insert_many(stream, slots)
        for q in range(3):
            assert stack[q] == replayed_sketch(stack, stream[slots == q])

    def test_long_stream_crosses_kernel_chunks(self, rng):
        stream = rng.integers(0, 3, size=150_000, dtype=np.uint64)
        s = TopkapiSketch(2, 2, row_seeds_from_master(4, 2))
        s.insert_many(stream)
        assert s == replayed_sketch(s, stream)

    def test_slot_arguments_validated(self):
        items = np.arange(4, dtype=np.uint64)
        with pytest.raises(ValueError):
            fresh().insert_many(items, np.zeros(4))
        stack = TopkapiSketch(4, 16, SEEDS4, members=2)
        with pytest.raises(ValueError):
            stack.insert_many(items)
        with pytest.raises(ValueError):
            stack.insert_many(items, np.zeros(3))
        for bad in (2, -1):
            with pytest.raises(ValueError):
                stack.insert_many(items, np.array([0, 1, bad, 0]))


def one_cell(ids_counts=None) -> TopkapiSketch:
    """A 1 x 1 sketch, whose one cell sees every arrival in stream order,
    optionally starting at the given (id, count)."""
    s = TopkapiSketch(1, 1, row_seeds_from_master(5, 1))
    if ids_counts is not None:
        s.ids[0, 0], s.counts[0, 0] = ids_counts
    return s


class TestInsertManyOracle:
    """insert_many against the per-event pass of ``oracles.insert_per_event``,
    bit for bit: closed-form cells and replayed cells alike."""

    @pytest.mark.parametrize(
        "start, stream, end",
        [
            (None, [7], (7, 1)),  # k = 1
            (None, [7, 8], (7, 0)),  # k = 2: the second-to-last id, counter 0
            (None, [7, 8, 9], (9, 1)),  # k = 3
            (None, [7, 8, 9, 10], (9, 0)),
            (None, [7, 7], (7, 2)),  # a repeat at an even place breaks the alternation
            (None, [7, 8, 8], (8, 1)),  # a repeat at an odd place does not
            (None, [7, 8, 7], (7, 1)),
            ((5, 0), [5], (5, 1)),  # a non-empty cell with counter 0
            ((5, 0), [6, 7], (6, 0)),
            ((5, 2), [6], (5, 1)),  # a counter above 0 takes the per-event pass
            ((5, 1), [5, 6, 7], (5, 0)),
            ((5, 1), [], (5, 1)),  # empty input
            (None, [], (NULL_ID, 0)),
        ],
    )
    def test_one_cell_streams(self, start, stream, end):
        items = np.array(stream, dtype=np.uint64)
        got, want = one_cell(start), one_cell(start)
        got.insert_many(items)
        insert_per_event(want, items)
        assert got == want
        assert (int(got.ids[0, 0]), int(got.counts[0, 0])) == end

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        grid=st.sampled_from([(1, 1), (1, 3), (2, 2), (4, 32)]),
        members=st.sampled_from([None, 1, 3]),
        # a few ids, so that repeats land at even and odd places; the null
        # id and one past 2^63 are items like any other
        stream=st.lists(st.sampled_from([0, 1, 2, 3, 2**63 + 1, NULL_ID]), max_size=40),
        prefill=st.lists(
            st.tuples(st.integers(0, 1 << 10), st.sampled_from([0, 1, 2**63 + 1]), st.integers(0, 3)),
            max_size=8,
        ),
        chunk=st.sampled_from([None, 1, 3]),  # None: the real chunk size
        data=st.data(),
    )
    def test_equals_per_event_pass(self, grid, members, stream, prefill, chunk, data):
        rows, cols = grid
        got = TopkapiSketch(rows, cols, row_seeds_from_master(11, rows), members)
        for cell, item, count in prefill:  # cells that start non-empty, (id, 0) included
            got.ids.flat[cell % got.ids.size] = item
            got.counts.flat[cell % got.ids.size] = count
        want = got._with_cells(got.ids.copy(), got.counts.copy())
        items = np.array(stream, dtype=np.uint64)
        slots = None
        if members is not None:
            slots = np.array(
                data.draw(st.lists(st.integers(0, members - 1), min_size=items.size, max_size=items.size)),
                dtype=np.int64,
            )
        with mock.patch.object(sketch_module, "_INSERT_CHUNK", chunk or sketch_module._INSERT_CHUNK):
            got.insert_many(items, slots)
        insert_per_event(want, items, slots)
        assert got == want

    def test_stack_stream_across_the_chunk_bound(self, rng):
        # distinct ids, as a probe inserts them, plus repeats, over 3 members
        n = sketch_module._INSERT_CHUNK + 500
        items = rng.permutation(np.arange(1, n + 1, dtype=np.uint64))
        items[::1000] = items[1::1000]
        slots = np.sort(rng.integers(0, 3, size=n))
        got = TopkapiSketch(4, 32, SEEDS4, members=3)
        want = TopkapiSketch(4, 32, SEEDS4, members=3)
        got.insert_many(items, slots)
        insert_per_event(want, items, slots)
        assert got == want


class TestStack:
    def _members(self, rng, n=5):
        out = []
        for q in range(n):
            s = fresh()
            if q != 2:  # one empty member
                s.insert_many(rng.integers(0, 40, size=200, dtype=np.uint64))
            out.append(s)
        return out

    def test_members_round_trip_through_a_stack(self, rng):
        members = self._members(rng)
        stack = TopkapiSketch.stack(members)
        assert stack.ids.shape == (5, 4, 16) and len(stack) == 5
        assert list(stack) == members
        assert stack[1:3] == TopkapiSketch.stack(members[1:3])

    def test_merge_of_stacks_is_memberwise(self, rng):
        a, b = self._members(rng), self._members(rng)
        merged = TopkapiSketch.stack(a).merge(TopkapiSketch.stack(b))
        assert list(merged) == [x.merge(y) for x, y in zip(a, b)]

    def test_wire_form_is_member_concatenation(self, rng):
        # one header, whose length is a single member's, then each member's
        # cells; the record masks those cells under the header's W and B
        members = self._members(rng)
        stack = TopkapiSketch.stack(members)
        dense, head = dense_record(stack), 12 + 8 * 4
        assert struct.unpack_from("<III", dense) == (head - 4 + 16 * 4 * 16, 4, 16)
        cells = b"".join(dense_record(s)[head:] for s in members)
        assert dense == dense_record(members[0])[:head] + cells
        blob = stack.to_bytes()
        assert struct.unpack_from("<II", blob) == (4, 16) and blob == masked_payload(stack)
        assert TopkapiSketch.stack(members[:1]).to_bytes() == members[0].to_bytes()
        back, end = TopkapiSketch.from_bytes(blob, members=5)
        assert end == len(blob) and back == stack

    def test_mixed_or_short_stacks_rejected(self, rng):
        members = self._members(rng, 2)
        with pytest.raises(ShapeMismatchError):
            TopkapiSketch.stack([members[0], fresh(4, 8)])
        with pytest.raises(ShapeMismatchError):
            TopkapiSketch.stack([members[0], fresh(master=78)])
        # a stack has one header: other seeds make another stack, which does not merge
        other = TopkapiSketch.stack([fresh(master=78), fresh(master=78)]).to_bytes()
        with pytest.raises(ShapeMismatchError):
            TopkapiSketch.stack(members).merge(TopkapiSketch.from_bytes(other, members=2)[0])
        with pytest.raises(SketchFormatError):
            decode_whole(members[0].to_bytes(), 2)
        with pytest.raises(SketchFormatError):
            decode_whole(TopkapiSketch.stack(members).to_bytes()[:-1], 2)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 6),
        streams=st.lists(
            st.lists(st.one_of(st.integers(0, 20), st.integers(0, NULL_ID - 1)), max_size=30),
            min_size=1,
            max_size=6,
        ),
        pad=st.binary(max_size=5),
    )
    def test_stack_record_is_first_record_then_cells(self, rows, cols, streams, pad):
        members = []
        for stream in streams:
            s = fresh(rows, cols)
            s.insert_many(np.array(stream, dtype=np.uint64))
            members.append(s)
        stack, n = TopkapiSketch.stack(members), len(members)
        cells = [dense_record(members[q])[12 + 8 * rows :] for q in range(1, n)]
        assert dense_record(stack) == dense_record(members[0]) + b"".join(cells)
        blob = stack.to_bytes()
        assert blob == masked_payload(stack)
        back, end = TopkapiSketch.from_bytes(blob + pad, members=n)
        assert back == stack and end == len(blob)
        assert back.to_bytes() == blob

    def test_single_sketch_is_not_a_sequence(self):
        with pytest.raises(TypeError):
            len(fresh())
        with pytest.raises(TypeError):
            fresh()[0]


# shapes of the masked-payload tests; 4 x 32 is the deployed W x B of 128 cells
MASK_SHAPES = [(1, 1), (1, 3), (2, 2), (3, 5), (4, 32)]
# ids small, around 2^63 and just below the null id
IDS = np.array([0, 1, 7, 19, 1 << 63, (1 << 63) + 5, NULL_ID - 1], dtype=np.uint64)


def random_stack(rng, n, rows, cols, occupied, zero_share):
    """A stack of n whose cells are each taken with chance ``occupied``; a
    taken cell holds a real id and a count of 0 with chance ``zero_share``,
    else a count in 1..2^32 - 1."""
    stack = TopkapiSketch(rows, cols, row_seeds_from_master(5, rows), members=n)
    taken = rng.random(stack.ids.shape) < occupied
    stack.ids[taken] = rng.choice(IDS, size=int(taken.sum()))
    zero = rng.random(int(taken.sum())) < zero_share
    stack.counts[taken] = np.where(zero, 0, rng.integers(1, 1 << 32, size=zero.size))
    return stack


def masked_size(stack) -> int:
    """Header, one mask bit per cell in whole bytes, two width bytes, and
    per cell not (null, 0) its id and its count at their column widths."""
    live = (stack.ids != np.uint64(NULL_ID)) | (stack.counts != 0)
    cell = column_width(stack.ids[live]) + column_width(stack.counts[live])
    return 8 + 8 * stack.rows + (stack.ids.size + 7) // 8 + 2 + cell * int(live.sum())


def decode_whole(buf, members):
    """The stack of ``members`` whose record is the whole of ``buf``, as
    the reduce takes it: bytes past the record are malformed too."""
    stack, end = TopkapiSketch.from_bytes(buf, members)
    if end != len(buf):
        raise SketchFormatError(f"{len(buf) - end} bytes past the sketch record")
    return stack


class TestMaskedPayload:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        n=st.integers(1, 4),
        shape=st.sampled_from(MASK_SHAPES),
        occupied=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, n, shape, occupied, zero_share, seed):
        stack = random_stack(np.random.default_rng(seed), n, *shape, occupied, zero_share)
        payload = stack.to_bytes()
        assert payload == masked_payload(stack)
        assert len(payload) == masked_size(stack) <= record_bound(stack)
        back, end = TopkapiSketch.from_bytes(payload, n)
        assert back == stack and back.to_bytes() == payload and end == len(payload)
        # past the dense record by at most the mask and the two width bytes,
        # less its length word
        assert len(payload) - len(dense_record(stack)) <= (stack.ids.size + 7) // 8 + 2 - 4

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_columns_take_the_fewest_bytes_that_hold_them(self, width):
        top = (1 << (8 * width)) - 1
        for ids, counts, widths in [
            ([top], [0], (width, 1)),
            ([5], [top], (1, width)),
            ([top, 3], [top, 1], (width, width)),
        ]:
            stack = TopkapiSketch(1, 2, row_seeds_from_master(5, 1), members=1)
            # the null id cannot hold a cell: one below it
            stack.ids[0, 0, : len(ids)] = [min(i, NULL_ID - 1) for i in ids]
            stack.counts[0, 0, : len(ids)] = counts
            payload = stack.to_bytes()
            head = 8 + 8 + 1
            assert tuple(payload[head : head + 2]) == widths
            assert len(payload) == head + 2 + sum(len(ids) * w for w in widths)
            assert decode_whole(payload, 1) == stack
        empty = TopkapiSketch(4, 32, SEEDS4, members=3)
        assert empty.to_bytes()[-2:] == bytes([1, 1])

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_larger_than_dense_only_past_the_count_bound(self, rng, n):
        # at W x B = 128 the mask is 16 B per member; a cell costs at most
        # 8 + 4 B while its counts stay within MAX_TABLES = 2^32 - 1, so only
        # a full stack with a count past the bound (the receiver rejects it)
        # outgrows the dense record: by the mask and the two width bytes,
        # less the dense record's length word
        stack = random_stack(rng, n, 4, 32, 1.0, 0.0)
        stack.ids.reshape(-1)[0] = 1 << 63  # ids at 8 B
        dense = len(dense_record(stack))
        stack.counts.reshape(-1)[0] = MAX_TABLES
        assert len(stack.to_bytes()) == dense - 4 - 4 * n * 128 + 16 * n + 2
        stack.counts.reshape(-1)[0] = MAX_TABLES + 1
        assert len(stack.to_bytes()) == dense - 4 + 16 * n + 2 == record_bound(stack)  # the worst
        empty = TopkapiSketch(4, 32, SEEDS4, members=n)
        assert len(empty.to_bytes()) == 8 + 8 * 4 + 16 * n + 2

    def test_malformed_payloads_raise(self, rng):
        stack = random_stack(rng, 2, 1, 3, 0.5, 0.3)  # 6 cells: 2 padding bits
        stack.ids[0, 0, 0], stack.counts[0, 0, 0] = 7, 0  # a set cell
        stack.ids[1, 0, 2], stack.counts[1, 0, 2] = NULL_ID, 0  # an unset one, the last
        good = stack.to_bytes()
        head = 8 + 8
        null_cell = TopkapiSketch(1, 3, row_seeds_from_master(5, 1), members=1)
        null_cell.ids[0, 0, 1] = 9
        with_null = bytearray(null_cell.to_bytes())
        with_null[head + 1 :] = bytes([8, 1]) + struct.pack("<QB", NULL_ID, 0)
        counted_null = TopkapiSketch(1, 3, row_seeds_from_master(5, 1), members=1)
        counted_null.counts[0, 0, 2] = 4  # no insert or merge makes one; it travels and fails
        padded = bytearray(good)
        padded[head] |= 0x80
        one_more = bytearray(good)
        one_more[head] |= 1 << 5
        small = null_cell.to_bytes()  # one set cell, id 9, count 0: widths 1, 1
        assert small[head + 1 :] == bytes([1, 1, 9, 0])
        widths = {w: small[: head + 1] + bytes([1, w, 9]) + bytes(w) for w in (0, 3, 2, 16)}
        bad = {
            "short header": (good[:10], 2),
            "no row seeds": (good[: head - 1], 2),
            "no mask": (good[:head], 2),
            "no column widths": (good[: head + 2], 2),
            "cut column": (good[:-1], 2),
            "trailing bytes": (good + b"\0" * 16, 2),
            "more members": (good, 3),
            "fewer members": (good, 1),
            "no members": (good, 0),
            "padding bit": (bytes(padded), 2),
            "mask bit without its cell": (bytes(one_more), 2),
            "count width 0": (widths[0], 1),
            "count width 3": (widths[3], 1),
            "count width 2 for a count below 2^8": (widths[2], 1),
            "count width 16": (widths[16], 1),
            "set cell of the null id": (bytes(with_null), 1),
            "null cell with a count": (counted_null.to_bytes(), 1),
            "dense record": (dense_record(stack), 2),
        }
        for name, (payload, n) in bad.items():
            with pytest.raises(SketchFormatError):
                decode_whole(payload, n)
                pytest.fail(name)
        assert decode_whole(good, 2) == stack
        assert TopkapiSketch.from_bytes(good + b"\0" * 16, 2)[1] == len(good)


class TestMerge:
    def _cell_sketch(self, item, count):
        s = TopkapiSketch(1, 1, row_seeds_from_master(3, 1))
        if count:
            s.ids[0, 0] = np.uint64(item)
            s.counts[0, 0] = np.uint64(count)
        return s

    def test_equal_ids_sum(self):
        m = self._cell_sketch(4, 5).merge(self._cell_sketch(4, 3))
        assert (int(m.ids[0, 0]), int(m.counts[0, 0])) == (4, 8)

    def test_differing_ids_keep_larger_with_difference(self):
        m = self._cell_sketch(4, 5).merge(self._cell_sketch(9, 3))
        assert (int(m.ids[0, 0]), int(m.counts[0, 0])) == (4, 2)

    def test_count_tie_differing_ids_resolves_to_smaller_id_zero(self):
        m = self._cell_sketch(9, 5).merge(self._cell_sketch(4, 5))
        assert (int(m.ids[0, 0]), int(m.counts[0, 0])) == (4, 0)

    def test_zero_count_cell_dominated(self):
        m = self._cell_sketch(9, 0).merge(self._cell_sketch(4, 3))
        assert (int(m.ids[0, 0]), int(m.counts[0, 0])) == (4, 3)

    def test_commutative_cell_for_cell(self, rng):
        for trial in range(20):
            a, b = fresh(), fresh()
            a.insert_many(rng.integers(0, 25, size=300, dtype=np.uint64))
            b.insert_many(rng.integers(0, 25, size=300, dtype=np.uint64))
            assert a.merge(b) == b.merge(a)

    def test_shape_and_seed_mismatch_rejected(self):
        a = fresh(4, 16)
        with pytest.raises(ShapeMismatchError):
            a.merge(fresh(4, 8))
        with pytest.raises(ShapeMismatchError):
            a.merge(fresh(2, 16))
        with pytest.raises(ShapeMismatchError):
            a.merge(fresh(4, 16, master=78))


# ids and counts drawn apart, so null cells with counts, equal ids with
# different counts and ties at the ends of the u64 order all occur
MERGE_IDS = (0, 1, 2, 1 << 63, NULL_ID - 1, NULL_ID)
MERGE_COUNTS = (0, 1, 2, 3, MAX_TABLES)


def cell_columns(n):
    pools = (MERGE_IDS, MERGE_COUNTS) * 2  # a's ids and counts, then b's
    return st.tuples(*[st.lists(st.sampled_from(p), min_size=n, max_size=n) for p in pools])


class TestMergeCellsOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(1, 24).flatmap(cell_columns))
    def test_equals_the_spelled_out_rule(self, cells):
        a_ids, a_cnt, b_ids, b_cnt = (np.array(c, dtype=np.uint64) for c in cells)
        ids, counts = merge_cells(a_ids, a_cnt, b_ids, b_cnt)
        want_ids, want_counts = reference_merge_cells(a_ids, a_cnt, b_ids, b_cnt)
        assert ids.dtype == counts.dtype == np.uint64
        assert np.array_equal(ids, want_ids) and np.array_equal(counts, want_counts)
        swapped_ids, swapped_counts = merge_cells(b_ids, b_cnt, a_ids, a_cnt)
        assert np.array_equal(swapped_ids, ids) and np.array_equal(swapped_counts, counts)


class TestQuery:
    def test_ten_inserts_single_item(self):
        s = fresh()
        s.insert_many(np.full(10, 3, dtype=np.uint64))
        hits = s.heavy_hitters(5)
        assert hits == ((3, 10),)

    def test_sorted_desc_count_then_asc_id(self):
        s = fresh(2, 32)
        s.insert_many(
            np.concatenate(
                [
                    np.full(5, 10, dtype=np.uint64),
                    np.full(5, 2, dtype=np.uint64),
                    np.full(3, 30, dtype=np.uint64),
                ]
            )
        )
        entries = s.heavy_hitters(0)
        assert entries == ((2, 5), (10, 5), (30, 3))

    def test_zipf_threshold_behaviour(self, rng):
        # returned set includes every item above 2% of the stream and nothing
        # below 0.1%, at a threshold of 1%; checked against exact counts
        length = 10_000
        stream = zipf_stream(rng, length, 2000, a=1.3)
        s = fresh(4, 64)
        s.insert_many(stream)
        truth = exact_counter(stream)
        reported = {i for i, _ in s.heavy_hitters(length // 100)}
        must_have = {i for i, c in truth.items() if c > length * 0.02}
        must_not = {i for i, c in truth.items() if c < length * 0.001}
        assert must_have <= reported
        assert not (reported & must_not)


class TestInvariants:
    @pytest.mark.parametrize("kind", [0, 1, 2, 3])
    def test_majority_and_count_bounds_adversarial(self, rng, kind):
        stream = adversarial_stream(rng, 4000, kind)
        self._check_bounds(fresh(4, 8), stream)

    def test_majority_and_count_bounds_random(self, rng):
        for _ in range(30):
            stream = zipf_stream(rng, 3000, 500, a=1.2)
            self._check_bounds(fresh(4, 16), stream)

    @staticmethod
    def _check_bounds(s, stream):
        cells = cell_arrival_counts(s, stream)
        s.insert_many(stream)
        for (r, b), counter in cells.items():
            total = sum(counter.values())
            top_id, top_count = max(counter.items(), key=lambda ic: ic[1])
            stored_id = int(s.ids[r, b])
            stored_count = int(s.counts[r, b])
            if 2 * top_count > total:
                # strict majority in this cell must be retained
                assert stored_id == top_id
            if stored_count > 0:
                true_freq = counter[stored_id]
                assert stored_count <= true_freq
                assert true_freq - stored_count <= total - true_freq

    def test_fixed_footprint_after_a_million_inserts(self, rng):
        s = fresh(4, 32)
        before = s.ids.nbytes + s.counts.nbytes
        s.insert_many(rng.integers(0, 1 << 40, size=1_000_000, dtype=np.uint64))
        assert s.ids.nbytes + s.counts.nbytes == before == 16 * 4 * 32
        assert len(s.to_bytes()) <= record_bound(s)


class TestSerialization:
    def test_round_trip_bit_exact(self, rng):
        s = fresh(3, 20)
        s.insert_many(rng.integers(0, 100, size=5000, dtype=np.uint64))
        blob = s.to_bytes()
        back, end = TopkapiSketch.from_bytes(blob)
        assert end == len(blob)
        assert back == s
        assert back.to_bytes() == blob

    def test_concatenated_parse(self, rng):
        a, b = fresh(2, 4), fresh(2, 4)
        a.insert_many(np.array([5], dtype=np.uint64))
        b.insert_many(rng.integers(0, 9, size=50, dtype=np.uint64))
        blob = a.to_bytes() + b.to_bytes()
        first, off = TopkapiSketch.from_bytes(blob)
        second, end = TopkapiSketch.from_bytes(blob[off:])
        assert first == a and second == b and off + end == len(blob)

    def test_null_cell_with_count_rejected(self):
        # a (null, 5) cell merged into a real (7, 3) would give (null, 2)
        s = fresh(1, 1)
        s.counts[0, 0] = 5
        with pytest.raises(SketchFormatError, match="null cell"):
            TopkapiSketch.from_bytes(s.to_bytes())
        # a real id with counter 0 is a counted-down cell, and stays valid
        s.ids[0, 0], s.counts[0, 0] = 7, 0
        assert TopkapiSketch.from_bytes(s.to_bytes())[0] == s

    def test_truncated_rejected(self):
        blob = fresh(2, 4).to_bytes()
        with pytest.raises(ValueError):
            TopkapiSketch.from_bytes(blob[:-1])
        with pytest.raises(ValueError):
            TopkapiSketch.from_bytes(b"\x01")


class TestExactCounter:
    def test_empty(self):
        assert exact_counter([]) == {}

    def test_small(self):
        assert dict(exact_counter([4, 4, 9])) == {4: 2, 9: 1}

    def test_conservation(self, rng):
        stream = rng.integers(0, 50, size=1234, dtype=np.uint64)
        counts = exact_counter(stream)
        assert sum(counts.values()) == len(stream)
