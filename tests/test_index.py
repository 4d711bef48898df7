import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchlsh.cli import main
from sketchlsh.core import (
    NULL_ID,
    ConfigError,
    DatasetPartition,
    LshConfig,
    SketchLshError,
    SparseVector,
)
from sketchlsh.dataio import format_record, save_lsh_config
from sketchlsh.hashing import HashFamily
from sketchlsh.index import IndexFileError, NodeIndex, _TableBuckets, preprocess
from sketchlsh.synthetic import (
    planted_instance,
    random_sparse_vectors,
    round_robin_partitions,
    vector_with_swaps,
)

from oracles import (
    bucket_ids,
    bucket_sketch,
    cell_arrival_counts,
    count_maps,
    count_payload,
    exact_count_map,
    reference_addresses,
    replay_cells,
    replayed_candidates,
    replayed_sketch,
)

CFG = LshConfig(hashes_per_table=3, num_tables=8, table_range=1 << 12, top_k=4, master_seed=91)


def make_dataset(rng, count, dim=4096, nnz=24):
    return [(i, v) for i, v in enumerate(random_sparse_vectors(rng, count, dim, nnz))]


def event_multiset(index: NodeIndex) -> Counter:
    """Exact-counter view of all (table, address, id) insertion events."""
    events: Counter = Counter()
    for t, tb in enumerate(index.tables):
        for pos in range(tb.occupied):
            addr = int(tb.addrs[pos])
            for vid in tb.ids[tb.offsets[pos] : tb.offsets[pos + 1]].tolist():
                events[(t, addr, int(vid))] += 1
    return events


class TestPreprocess:
    def test_empty_partition(self):
        idx = preprocess(DatasetPartition(0, []), CFG)
        assert idx.vector_count == 0
        assert idx.occupied_slots == [0] * CFG.num_tables

    def test_single_vector_materializes_one_slot_per_table(self):
        cfg = LshConfig(hashes_per_table=2, num_tables=3, table_range=1 << 10, top_k=2, master_seed=5)
        v = SparseVector([3, 17, 50], 1000)
        idx = preprocess(DatasetPartition(0, [(42, v)]), cfg)
        assert idx.occupied_slots == [1, 1, 1]
        fam = HashFamily.from_config(cfg)
        addrs = fam.addresses(v)
        for t in range(3):
            assert bucket_sketch(idx, t, int(addrs[t])).heavy_hitters(0) == ((42, 1),)

    def test_total_insert_events(self, rng):
        data = make_dataset(rng, 50)
        idx = preprocess(DatasetPartition(0, data), CFG)
        assert sum(event_multiset(idx).values()) == 50 * CFG.num_tables

    def test_identical_vectors_share_buckets(self):
        cfg = LshConfig(hashes_per_table=2, num_tables=4, table_range=1 << 10, top_k=2, master_seed=5)
        v = SparseVector([3, 17, 50], 1000)
        idx = preprocess(DatasetPartition(0, [(1, v), (2, v)]), cfg)
        assert idx.occupied_slots == [1, 1, 1, 1]
        fam = HashFamily.from_config(cfg)
        addrs = fam.addresses(v)
        # bucket state must equal an independent replay of [1, 2] arrivals
        probe = bucket_sketch(idx, 0, int(addrs[0]))
        expected = replay_cells(probe, np.array([1, 2], dtype=np.uint64))
        for (r, b), (hh, count) in expected.items():
            assert int(probe.counts[r, b]) == count
            if count > 0:
                assert int(probe.ids[r, b]) == hh

    def test_empty_vectors_rejected_with_report(self):
        part = DatasetPartition(
            0, [(0, SparseVector([1], 10)), (1, SparseVector([], 10)), (2, SparseVector([2], 10))]
        )
        idx = preprocess(part, CFG)
        assert idx.vector_count == 2
        assert len(idx.rejected) == 1
        assert idx.rejected[0][0] == 1

    def test_columns_equal_per_vector_reference(self, rng):
        # empty vectors between the others: rejected in order, the rest hashed
        # in one batch whose columns must match per-vector addresses
        vecs = random_sparse_vectors(rng, 30, 4096, 10)
        pairs = [(3 * i + 7, v) for i, v in enumerate(vecs)]
        for at in (0, 11, 12, 25, len(pairs)):
            pairs.insert(at, (1000 + at, SparseVector([], 4096)))
        idx = preprocess(DatasetPartition(0, pairs), CFG)
        assert idx.rejected == tuple(
            (vid, "empty vector") for vid, v in pairs if v.nnz == 0
        )
        kept = [(vid, v) for vid, v in pairs if v.nnz]
        addrs = reference_addresses(HashFamily.from_config(CFG), [v for _, v in kept])
        ids = np.array([vid for vid, _ in kept], dtype=np.uint64)
        assert idx.vector_count == len(kept)
        for t, tb in enumerate(idx.tables):
            ref = _TableBuckets.build(addrs[:, t].copy(), ids)
            assert np.array_equal(tb.addrs, ref.addrs)
            assert np.array_equal(tb.offsets, ref.offsets)
            assert np.array_equal(tb.ids, ref.ids)

    def test_partition_invariance_exact_level(self, rng):
        data = make_dataset(rng, 120)
        whole = event_multiset(preprocess(DatasetPartition(0, data), CFG))
        for m in (2, 3, 4):
            parts = round_robin_partitions(data, m)
            combined: Counter = Counter()
            for p in parts:
                combined += event_multiset(preprocess(p, CFG))
            assert combined == whole


class TestLocalCandidates:
    def test_all_empty_slots_yield_empty_sketch(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 5)), CFG)
        probe = 999
        assert all(bucket_ids(tb, probe).size == 0 for tb in idx.tables)
        merged = idx.local_candidates(np.full((1, CFG.num_tables), probe, dtype=np.uint64))
        assert merged == idx.empty_sketch(1)

    def test_single_vector_count_equals_tables(self):
        cfg = LshConfig(hashes_per_table=2, num_tables=8, table_range=1 << 12, top_k=2, master_seed=13)
        v = SparseVector([5, 9, 700], 1024)
        idx = preprocess(DatasetPartition(0, [(3, v)]), cfg)
        fam = HashFamily.from_config(cfg)
        merged = idx.local_candidates(fam.addresses([v]))
        assert merged[0].heavy_hitters(0) == ((3, 8),)

    def test_node_split_is_exact_count_invariant(self, rng):
        data = make_dataset(rng, 60)
        cfg = CFG
        fam = HashFamily.from_config(cfg)
        addrs = fam.addresses([data[17][1], data[40][1]])
        whole = preprocess(DatasetPartition(0, data), cfg)
        parts = round_robin_partitions(data, 2)
        a, b = (preprocess(p, cfg).exact_candidates(addrs) for p in parts)
        merged = a.merge(b)
        assert count_maps(merged) == count_maps(whole.exact_candidates(addrs))
        assert merged.to_bytes() == whole.exact_candidates(addrs).to_bytes()

    def test_validates_address_shape_and_range(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 3)), CFG)
        with pytest.raises(ConfigError):
            idx.local_candidates(np.zeros(2, dtype=np.uint64))
        with pytest.raises(ConfigError):
            idx.local_candidates(np.zeros(CFG.num_tables, dtype=np.uint64))  # a row, not a batch
        with pytest.raises(ConfigError):
            idx.local_candidates(np.full((1, CFG.num_tables), CFG.table_range, dtype=np.uint64))
        with pytest.raises(ConfigError):
            idx.local_candidates(np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(ConfigError):
            idx.local_candidates(np.zeros((2, 2, CFG.num_tables), dtype=np.uint64))

    def test_exact_probe_validates_like_sketch_probe(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 3)), CFG)
        for bad in (
            np.zeros((1, 2), dtype=np.uint64),
            np.full((1, CFG.num_tables), CFG.table_range, dtype=np.uint64),
            np.zeros(CFG.num_tables, dtype=np.uint64),  # a batch, not a single row
            np.zeros((2, 2, CFG.num_tables), dtype=np.uint64),
        ):
            with pytest.raises(ConfigError):
                idx.exact_candidates(bad)
        out_of_range = np.full((1, CFG.num_tables), CFG.table_range, dtype=np.uint64)
        with pytest.raises(ConfigError, match="table range"):
            idx.local_candidates(out_of_range)
        with pytest.raises(ConfigError, match="table range"):
            idx.exact_candidates(out_of_range)


def planted_node():
    inst = planted_instance(n_background=600, n_queries=20, per_query=8, dim=4096, nnz=24, seed=8)
    node = preprocess(round_robin_partitions(list(inst.dataset), 2)[0], CFG)
    return node, [v for _, v in inst.queries]


HOT_BUCKET = 10_000


def skewed_node():
    """Near duplicates in Zipf-sized groups, plus HOT_BUCKET copies of one
    vector interleaved with them, so one bucket per table holds >= 10^4 ids."""
    rng = np.random.default_rng(17)
    protos = random_sparse_vectors(rng, 30, 4096, 24)
    sizes = np.minimum(rng.zipf(1.3, size=len(protos)), 200)
    pairs = [vector_with_swaps(rng, protos[g], 1) for g in range(len(protos)) for _ in range(sizes[g])]
    pairs += [protos[0]] * HOT_BUCKET
    order = rng.permutation(len(pairs))
    node = preprocess(DatasetPartition(0, [(i, pairs[j]) for i, j in enumerate(order)]), CFG)
    return node, protos


def with_empty_table(node):
    """``node`` with its first table emptied."""
    none = np.empty(0, dtype=np.uint64)
    tables = [_TableBuckets.build(none, none)] + node.tables[1:]
    return NodeIndex(CFG, node.node_id, tables, node.vector_count)


@pytest.fixture(scope="module", params=["planted", "skewed", "empty-table"])
def probe_case(request):
    node, queries = skewed_node() if request.param == "skewed" else planted_node()
    if request.param == "empty-table":
        node = with_empty_table(node)
    fam = HashFamily.from_config(CFG)
    hits = np.vstack([fam.addresses(v) for v in queries])
    empty = np.array(
        [np.setdiff1d(np.arange(CFG.table_range, dtype=np.uint64), tb.addrs)[0] for tb in node.tables],
        dtype=np.uint64,
    )
    partly = hits[0].copy()
    partly[::2] = empty[::2]  # every other table addresses an empty bucket
    # hits, a repeated row (one bucket addressed twice), a partly empty row
    # and an all-empty row
    batch = np.vstack([hits, hits[:1], partly, empty])
    return request.param, node, batch


def reference_local_candidates(node, row, replayed):
    """One query at a time: each bucket sketch from the dict replay, folded
    over the tables left to right with merge."""
    merged = node.empty_sketch()
    for t, addr in enumerate(row.tolist()):
        ids = bucket_ids(node.tables[t], addr)
        if ids.size:
            if (t, addr) not in replayed:
                replayed[(t, addr)] = replayed_sketch(merged, ids)
            merged = merged.merge(replayed[(t, addr)])
    return merged


class TestBatchProbe:
    def test_stack_equals_rows_and_replay_reference(self, probe_case):
        case, node, batch = probe_case
        if case == "skewed":  # the first query is the hot vector itself
            sizes = [bucket_ids(node.tables[t], a).size for t, a in enumerate(batch[0].tolist())]
            assert min(sizes) >= HOT_BUCKET
        stack = node.local_candidates(batch)
        assert stack.ids.shape == (len(batch), CFG.sketch_rows, CFG.sketch_cols)
        rows = [node.local_candidates(row[None])[0] for row in batch]
        replayed: dict = {}
        reference = [reference_local_candidates(node, row, replayed) for row in batch]
        assert list(stack) == rows == reference
        assert rows[-1] == node.empty_sketch()  # the all-empty row

    def test_stack_equals_replay_oracle(self, probe_case):
        case, node, batch = probe_case
        assert bool(node.heavy) == (case == "skewed")
        assert node.local_candidates(batch) == replayed_candidates(node, batch)

    def test_single_row_batch(self, probe_case):
        _, node, batch = probe_case
        one = node.local_candidates(batch[:1])
        assert len(one) == 1 and one[0] == node.local_candidates(batch)[0]
        with pytest.raises(ConfigError):
            node.local_candidates(batch[0])


@pytest.fixture(scope="module")
def exact_reference(probe_case):
    """The per-query oracle's count map of every row of the probe batch."""
    _, node, batch = probe_case
    return [exact_count_map(node, row) for row in batch]


class TestExactBatch:
    @settings(max_examples=60, deadline=None, database=None)
    @given(rows=st.lists(st.integers(min_value=0), min_size=1, max_size=60))
    def test_equals_per_query_oracle(self, probe_case, exact_reference, rows):
        # any rows of the probe batch, repeats included, in any order
        _, node, batch = probe_case
        rows = [r % len(batch) for r in rows]
        got = node.exact_candidates(batch[rows])
        expected = [exact_reference[r] for r in rows]
        assert len(got) == len(rows)
        assert count_maps(got) == expected
        assert got.to_bytes() == count_payload(expected)  # ids ascending per query

    def test_every_row_alone(self, probe_case, exact_reference):
        _, node, batch = probe_case
        for row, expected in zip(batch, exact_reference):
            assert count_maps(node.exact_candidates(row[None, :])) == [expected]
        assert exact_reference[-1] == {}  # the all-empty row


def grouped_partitions(rng, sizes, m: int, dim=4096, nnz=24):
    """m partitions, each holding one group of identical vectors per entry
    of ``sizes`` in its own random order, split as round_robin_partitions
    splits their interleaving; and one vector per group. A group fills a
    bucket of ``sizes[g]`` ids in every table of every rank, unless two
    groups collide in a table."""
    protos = random_sparse_vectors(rng, len(sizes), dim, nnz)
    orders = [rng.permutation(np.repeat(np.arange(len(sizes)), sizes)) for _ in range(m)]
    # rank r's vector at position pos gets id pos·m + r, which round robin sends to rank r
    data = [
        (pos * m + r, protos[order[pos]])
        for pos in range(sum(sizes))
        for r, order in enumerate(orders)
    ]
    return round_robin_partitions(data, m), protos


def heavy_config(rows: int, cols: int) -> LshConfig:
    return LshConfig(
        hashes_per_table=3, num_tables=4, table_range=1 << 16, top_k=2,
        sketch_rows=rows, sketch_cols=cols, master_seed=37,
    )


def assert_heavy_sketches_replay(node: NodeIndex) -> None:
    """The heavy buckets are exactly those over W·B ids, and each one's
    sketch equals an insert_many replay of its bucket into an empty sketch."""
    cells = node.config.sketch_rows * node.config.sketch_cols
    assert set(node.heavy) <= set(range(node.config.num_tables))
    for t, tb in enumerate(node.tables):
        where, sketches = node.heavy.get(t, (np.empty(0, np.int64), None))
        assert where.tolist() == np.flatnonzero(np.diff(tb.offsets) > cells).tolist()
        for j, pos in enumerate(where.tolist()):
            replay = node.empty_sketch()
            replay.insert_many(tb.ids[tb.offsets[pos] : tb.offsets[pos + 1]])
            assert sketches[j] == replay


# (W, B): a sketch of 1, 8, 15 and 128 cells
SHAPES = [(1, 1), (2, 4), (3, 5), (4, 32)]


class TestHeavyBuckets:
    @settings(max_examples=30, deadline=None, database=None)
    @given(
        shape=st.sampled_from(SHAPES),
        around=st.lists(
            st.sampled_from(["W·B-1", "W·B", "W·B+1", "2W·B+1"]), min_size=1, max_size=4
        ),
        small=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        m=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.integers(0, 1 << 16), max_size=10),
    )
    def test_probe_equals_replay_oracle(self, shape, around, small, m, seed, picks):
        cells = shape[0] * shape[1]
        sizes = {"W·B-1": cells - 1, "W·B": cells, "W·B+1": cells + 1, "2W·B+1": 2 * cells + 1}
        heavy = [sizes[a] for a in around if sizes[a] > 0]
        rng = np.random.default_rng(seed)
        parts, protos = grouped_partitions(rng, heavy + small, m)
        cfg = heavy_config(*shape)
        fam = HashFamily.from_config(cfg)
        absent = random_sparse_vectors(rng, 1, 4096, 24)
        # a heavy or boundary group, a small group and an absent vector in
        # every batch, so each table mixes heavy, small and empty buckets;
        # then any groups, repeats included
        queries = [protos[0], protos[len(heavy)], absent[0]] + [
            protos[p % len(protos)] for p in picks
        ]
        batch = fam.addresses(queries)
        for part in parts:
            node = preprocess(part, cfg)
            assert_heavy_sketches_replay(node)
            assert node.local_candidates(batch) == replayed_candidates(node, batch)

    def test_boundary_sizes_and_both_parities(self, rng):
        # W·B = 8: groups of 7 and 8 ids stay raw streams, 9 and 17 are heavy
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, [7, 8, 9, 17, 1, 2], 1)
        node = preprocess(part, cfg)
        for tb in node.tables:
            assert sorted(np.diff(tb.offsets).tolist()) == [1, 2, 7, 8, 9, 17]
        assert_heavy_sketches_replay(node)
        assert [w.size for w, _ in node.heavy.values()] == [2] * cfg.num_tables
        # the heavy cells hold odd (count 1) and even (count 0, a real id) arrivals
        parities = set()
        for t, (where, sketches) in node.heavy.items():
            tb = node.tables[t]
            for j, pos in enumerate(where.tolist()):
                stream = tb.ids[tb.offsets[pos] : tb.offsets[pos + 1]]
                for (r, b), arrived in cell_arrival_counts(sketches[j], stream).items():
                    k = sum(arrived.values())
                    assert int(sketches[j].counts[r, b]) == k % 2
                    parities.add(k % 2)
        assert parities == {0, 1}
        batch = HashFamily.from_config(cfg).addresses(protos + protos[::-1])
        assert node.local_candidates(batch) == replayed_candidates(node, batch)

    def test_heavy_sketches_survive_reload(self, rng, tmp_path):
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, [9, 30, 3], 1)
        node = preprocess(part, cfg)
        node.save(tmp_path / "index.bin")
        loaded = NodeIndex.load(tmp_path / "index.bin", cfg)
        assert loaded.heavy.keys() == node.heavy.keys()
        for t, (where, sketches) in node.heavy.items():
            assert np.array_equal(loaded.heavy[t][0], where) and loaded.heavy[t][1] == sketches
        batch = HashFamily.from_config(cfg).addresses(protos)
        assert loaded.local_candidates(batch) == node.local_candidates(batch)


class TestBoundedObservations:
    def test_probed_sketch_size_is_skew_independent(self):
        # a pathologically hot bucket must still be observed at fixed size
        cfg = LshConfig(hashes_per_table=2, num_tables=2, table_range=1 << 10, top_k=2, master_seed=5)
        v = SparseVector([3, 17, 50], 1000)
        small = preprocess(DatasetPartition(0, [(i, v) for i in range(3)]), cfg)
        big = preprocess(DatasetPartition(0, [(i, v) for i in range(500)]), cfg)
        fam = HashFamily.from_config(cfg)
        addr = int(fam.addresses(v)[0])
        assert len(bucket_sketch(small, 0, addr).to_bytes()) == len(bucket_sketch(big, 0, addr).to_bytes())

    def test_storage_within_slotwise_sketch_budget(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 300)), CFG)
        raw_bytes = sum(t.addrs.nbytes + t.offsets.nbytes + t.ids.nbytes for t in idx.tables)
        budget = sum(idx.occupied_slots) * len(idx.empty_sketch().to_bytes())
        assert raw_bytes <= budget


# Per case: (column, position in it, new value, the error it must raise). A
# header "position" is the byte offset of the field: 4 is the version, 24 the
# vector count.
BROKEN_COLUMNS = {
    "version-1": ("header", 4, lambda idx: 1, "version 1 .*rebuild it with `sketchlsh index`"),
    "id-count": ("header", 24, lambda idx: idx.vector_count + 1, "ids for"),
    "offsets-start": ("offsets", 0, lambda tb: 1, "offsets do not run from 0"),
    "offsets-end": ("offsets", -1, lambda tb: tb.ids.size - 1, "offsets do not run from 0"),
    "empty-bucket": ("offsets", 1, lambda tb: 0, "offsets do not strictly increase"),
    "offset-past-ids": ("offsets", 1, lambda tb: tb.ids.size + 1, "offsets do not strictly increase"),
    "negative-offset": ("offsets", 1, lambda tb: -1, "offsets do not strictly increase"),
    "addrs-order": ("addrs", 1, lambda tb: int(tb.addrs[0]), "addresses do not strictly increase"),
    "addrs-range": ("addrs", -1, lambda tb: CFG.table_range, "beyond the table range"),
    "null-id": ("ids", 3, lambda tb: NULL_ID, "null id"),
}


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        data = make_dataset(rng, 40)
        idx = preprocess(DatasetPartition(2, data), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        loaded = NodeIndex.load(path, CFG)
        assert loaded.node_id == 2
        assert loaded.vector_count == idx.vector_count
        for a, b in zip(idx.tables, loaded.tables):
            assert np.array_equal(a.addrs, b.addrs)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.ids, b.ids)
        # saving again reproduces the file bit for bit
        path2 = tmp_path / "again.bin"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_probed_sketches_survive_reload(self, rng, tmp_path):
        data = make_dataset(rng, 40)
        idx = preprocess(DatasetPartition(0, data), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        loaded = NodeIndex.load(path, CFG)
        fam = HashFamily.from_config(CFG)
        addrs = fam.addresses([data[11][1]])
        assert loaded.local_candidates(addrs) == idx.local_candidates(addrs)

    def test_config_mismatch_rejected(self, rng, tmp_path):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 5)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        other = LshConfig(hashes_per_table=4, num_tables=8, table_range=1 << 12, top_k=4, master_seed=91)
        with pytest.raises(ConfigError):
            NodeIndex.load(path, other)

    def test_file_equals_column_reference(self, rng, tmp_path):
        # buckets of several ids, and an empty table
        cfg = LshConfig(hashes_per_table=2, num_tables=3, table_range=1 << 11, top_k=4, master_seed=5)
        idx = preprocess(DatasetPartition(1, make_dataset(rng, 1500)), cfg)
        assert max(int(np.diff(t.offsets).max()) for t in idx.tables) > 1
        empty = preprocess(DatasetPartition(0, []), cfg)
        for index in (idx, empty):
            path = tmp_path / "index.bin"
            index.save(path)
            blob = path.read_bytes()
            assert blob == reference_index_bytes(index)
            assert len(blob) == 32 + sum(
                16 + 8 * (2 * t.occupied + 1) + 8 * t.ids.size for t in index.tables
            )

    def test_loaded_columns_are_views_of_the_file(self, rng, tmp_path):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 20)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        loaded = NodeIndex.load(path, CFG)
        for tb in loaded.tables:
            for column in (tb.addrs, tb.offsets, tb.ids):
                assert not column.flags.owndata and not column.flags.writeable

    def test_truncation_at_every_section_boundary_is_typed(self, rng, tmp_path):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 30)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        blob = path.read_bytes()
        cuts = section_boundaries(idx)
        assert cuts[-1] == len(blob)
        for cut in sorted({0, 3} | {c + d for c in cuts[:-1] for d in (-1, 0, 1)}):
            path.write_bytes(blob[:cut])
            with pytest.raises(SketchLshError):
                NodeIndex.load(path, CFG)

    def test_trailing_bytes_are_typed(self, rng, tmp_path):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 10)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(IndexFileError, match="trailing"):
            NodeIndex.load(path, CFG)

    @pytest.mark.parametrize("case", BROKEN_COLUMNS)
    def test_broken_invariant_is_a_data_error(self, rng, tmp_path, case):
        # each case breaks one invariant of table 0 (or the header) and
        # leaves every length intact
        column, pos, value, match = BROKEN_COLUMNS[case]
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 30)), CFG)
        path = tmp_path / "index-00000.bin"
        idx.save(path)
        blob = bytearray(path.read_bytes())
        tb = idx.tables[0]
        if column == "header":
            struct.pack_into("<Q" if pos == 24 else "<I", blob, pos, value(idx))
        else:
            start = column_starts(idx)[0][column]
            length = getattr(tb, column).size
            struct.pack_into("<Q", blob, start + 8 * (pos % length), value(tb) % 2**64)
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFileError, match=match):
            NodeIndex.load(path, CFG)
        # the CLI reports it as a data error
        save_lsh_config(CFG, tmp_path / "config.txt")
        queries = tmp_path / "q.txt"
        queries.write_text(format_record(make_dataset(rng, 1)[0][1]) + "\n")
        assert main([
            "query", "--indexes", str(tmp_path), "--queries", str(queries),
            "--world-size", "1", "--mode", "exact", "--out", str(tmp_path / "r.txt"),
        ]) == 3


def repeat_an_id(path, index: NodeIndex, t: int, pos: int) -> None:
    """Overwrite the last id of table ``t``'s bucket at ``pos`` in the saved
    file with the bucket's first id; every length and other check holds."""
    tb = index.tables[t]
    at = column_starts(index)[t]["ids"] + 8 * (int(tb.offsets[pos + 1]) - 1)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, at, int(tb.ids[tb.offsets[pos]]))
    path.write_bytes(bytes(blob))


class TestRepeatedIds:
    def test_in_a_heavy_bucket_is_a_data_error(self, rng, tmp_path):
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, [20, 2, 1], 1)
        node = preprocess(part, cfg)
        path = tmp_path / "index-00000.bin"
        node.save(path)
        repeat_an_id(path, node, 2, int(node.heavy[2][0][0]))
        with pytest.raises(IndexFileError, match="table 2: id .* appears twice"):
            NodeIndex.load(path, cfg)
        save_lsh_config(cfg, tmp_path / "config.txt")
        queries = tmp_path / "q.txt"
        queries.write_text(format_record(protos[0]) + "\n")
        assert main([
            "query", "--indexes", str(tmp_path), "--queries", str(queries),
            "--world-size", "1", "--mode", "sketch_tree", "--out", str(tmp_path / "r.txt"),
        ]) == 3

    @pytest.mark.parametrize("size", [2, 8])  # W·B = 8: the largest small bucket
    def test_in_a_small_bucket_still_loads_and_probes_as_the_replay(self, rng, tmp_path, size):
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, [size, 20, 1], 1)
        node = preprocess(part, cfg)
        path = tmp_path / "index.bin"
        node.save(path)
        tb = node.tables[1]
        pos = int(np.flatnonzero(np.diff(tb.offsets) == size)[0])
        repeat_an_id(path, node, 1, pos)
        loaded = NodeIndex.load(path, cfg)
        stream = bucket_ids(loaded.tables[1], int(tb.addrs[pos]))
        assert stream.size == size and np.unique(stream).size == size - 1
        batch = HashFamily.from_config(cfg).addresses(protos + protos[:1])
        assert loaded.local_candidates(batch) == replayed_candidates(loaded, batch)
        assert loaded.local_candidates(batch) != node.local_candidates(batch)


def reference_index_bytes(idx: NodeIndex) -> bytes:
    """The version-2 index file assembled field by field with struct."""
    cfg = idx.config
    parts = [
        struct.pack("<IIQIIQ", 0x58494C53, 2, cfg.fingerprint(), idx.node_id, cfg.num_tables, idx.vector_count)
    ]
    for tb in idx.tables:
        n_addr, n_ids = tb.addrs.size, tb.ids.size
        parts.append(struct.pack("<QQ", n_addr, n_ids))
        parts.append(struct.pack(f"<{n_addr}Q", *tb.addrs.tolist()))
        parts.append(struct.pack(f"<{n_addr + 1}q", *tb.offsets.tolist()))
        parts.append(struct.pack(f"<{n_ids}Q", *tb.ids.tolist()))
    return b"".join(parts)


def column_starts(idx: NodeIndex) -> list[dict[str, int]]:
    """Per table, the file offset where each column of a saved index starts."""
    off = struct.calcsize("<IIQIIQ")
    starts = []
    for tb in idx.tables:
        off += 16  # (n_addr, n_ids)
        starts.append({"addrs": off, "offsets": off + 8 * tb.addrs.size, "ids": off + 8 * (2 * tb.addrs.size + 1)})
        off = starts[-1]["ids"] + 8 * tb.ids.size
    return starts


def section_boundaries(idx: NodeIndex) -> list[int]:
    """File offsets where the header and each count and column of a saved index end."""
    off = struct.calcsize("<IIQIIQ")
    cuts = [off]
    for tb in idx.tables:
        for nbytes in (16, 8 * tb.addrs.size, 8 * tb.offsets.size, 8 * tb.ids.size):
            off += nbytes
            cuts.append(off)
    return cuts
