import numpy as np
import pytest

from sketchlsh.core import NULL_ID
from sketchlsh.sketch import (
    ShapeMismatchError,
    TopkapiSketch,
    row_seeds_from_master,
)
from sketchlsh.synthetic import adversarial_stream, zipf_stream

from oracles import cell_arrival_counts, exact_counter, replay_cells, replayed_sketch

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
        s.insert(42)
        bins = s._row_bins(np.array([42], dtype=np.uint64))[0]
        for r in range(s.rows):
            assert int(s.ids[r, bins[r]]) == 42
            assert int(s.counts[r, bins[r]]) == 1
        assert int(np.sum(s.ids != np.uint64(NULL_ID))) == s.rows

    def test_three_step_state_machine(self):
        # x, then colliding y, then x again: up, down, then increment -> (x, 1)
        s = TopkapiSketch(1, 1, row_seeds_from_master(5, 1))  # force collisions
        for item in (8, 9, 8):
            s.insert(item)
        assert int(s.ids[0, 0]) == 8
        assert int(s.counts[0, 0]) == 1

    def test_insert_many_equals_sequential_inserts(self, rng):
        stream = rng.integers(0, 30, size=500, dtype=np.uint64)
        a = fresh()
        a.insert_many(stream)
        b = fresh()
        for x in stream.tolist():
            b.insert(x)
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
        members = self._members(rng)
        stack = TopkapiSketch.stack(members)
        blob = stack.to_bytes()
        assert blob == b"".join(s.to_bytes() for s in members)
        back, end = TopkapiSketch.from_bytes(blob, members=5)
        assert end == len(blob) and back == stack

    def test_mixed_or_short_stacks_rejected(self, rng):
        members = self._members(rng, 2)
        with pytest.raises(ShapeMismatchError):
            TopkapiSketch.stack([members[0], fresh(4, 8)])
        with pytest.raises(ShapeMismatchError):
            TopkapiSketch.stack([members[0], fresh(master=78)])
        mixed = members[0].to_bytes() + fresh(master=78).to_bytes()
        with pytest.raises(ValueError):
            TopkapiSketch.from_bytes(mixed, members=2)
        with pytest.raises(ValueError):
            TopkapiSketch.from_bytes(members[0].to_bytes(), members=2)

    def test_single_sketch_is_not_a_sequence(self):
        with pytest.raises(TypeError):
            len(fresh())
        with pytest.raises(TypeError):
            fresh()[0]


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


class TestQuery:
    def test_ten_inserts_single_item(self):
        s = fresh()
        s.insert_many(np.full(10, 3, dtype=np.uint64))
        hits = s.heavy_hitters(5)
        assert hits.entries == ((3, 10),)

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
        entries = s.heavy_hitters(0).entries
        assert entries == ((2, 5), (10, 5), (30, 3))

    def test_zipf_threshold_behaviour(self, rng):
        # returned set includes every item above 2% of the stream and nothing
        # below 0.1%, at a threshold of 1%; checked against exact counts
        length = 10_000
        stream = zipf_stream(rng, length, 2000, a=1.3)
        s = fresh(4, 64)
        s.insert_many(stream)
        truth = exact_counter(stream)
        reported = {i for i, _ in s.heavy_hitters(length // 100).entries}
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
        before = (s.ids.nbytes + s.counts.nbytes, len(s.to_bytes()))
        s.insert_many(rng.integers(0, 1 << 40, size=1_000_000, dtype=np.uint64))
        after = (s.ids.nbytes + s.counts.nbytes, len(s.to_bytes()))
        assert before == after


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
        a.insert(5)
        b.insert_many(rng.integers(0, 9, size=50, dtype=np.uint64))
        blob = a.to_bytes() + b.to_bytes()
        first, off = TopkapiSketch.from_bytes(blob)
        second, end = TopkapiSketch.from_bytes(blob, off)
        assert first == a and second == b and end == len(blob)

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
