import struct
import tracemalloc
from collections import Counter
from unittest import mock

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
from sketchlsh.index import IndexFileError, NodeIndex, preprocess
from sketchlsh.sketch import TopkapiSketch
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
    record_bound,
    reference_addresses,
    replay_cells,
    replayed_candidates,
    replayed_sketch,
    table_buckets,
)

CFG = LshConfig(hashes_per_table=3, num_tables=8, table_range=1 << 12, top_k=4, master_seed=91)


def make_dataset(rng, count, dim=4096, nnz=24):
    return [(i, v) for i, v in enumerate(random_sparse_vectors(rng, count, dim, nnz))]


def event_multiset(index: NodeIndex) -> Counter:
    """Exact-counter view of all (table, address, id) insertion events."""
    events: Counter = Counter()
    for t, tb in enumerate(index.tables):
        for pos in range(tb.addrs.size):
            addr = int(tb.addrs[pos])
            for vid in tb.ids[tb.offsets[pos] : tb.offsets[pos + 1]].tolist():
                events[(t, addr, int(vid))] += 1
    return events


def assert_tables_equal_per_table_build(index: NodeIndex, addrs: np.ndarray, ids: np.ndarray) -> None:
    """Every table of ``index``, as its ``tables`` view gives it, equals the
    per-table build of the (n, L) address matrix ``addrs`` over ``ids``."""
    assert len(index.tables) == index.config.num_tables
    for t, tb in enumerate(index.tables):
        for got, want in zip(tb, table_buckets(addrs[:, t], ids)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


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
        addrs = fam.addresses([v])[0]
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
        addrs = fam.addresses([v])[0]
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
        for at in (0, 11, 12, 25, len(vecs)):
            vecs.insert(at, SparseVector([], 4096))
        pairs = [(3 * i + 7, v) for i, v in enumerate(vecs)]
        idx = preprocess(DatasetPartition(0, pairs), CFG)
        assert idx.rejected == tuple(
            (vid, "empty vector") for vid, v in pairs if v.nnz == 0
        )
        kept = [(vid, v) for vid, v in pairs if v.nnz]
        addrs = reference_addresses(HashFamily.from_config(CFG), [v for _, v in kept])
        ids = np.array([vid for vid, _ in kept], dtype=np.uint64)
        assert idx.vector_count == len(kept)
        assert_tables_equal_per_table_build(idx, addrs, ids)

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
        for scalar in (np.array(0), np.uint64(0)):  # no length to check a batch size by
            with pytest.raises(ConfigError):
                idx.local_candidates(scalar)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, 1.0] * (CFG.num_tables // 2)]),  # would probe bucket 0
            np.ones((1, CFG.num_tables), dtype=bool),
            np.array([[-1] + [0] * (CFG.num_tables - 1)]),
            [[-1] + [0] * (CFG.num_tables - 1)],
            [[2**64] + [0] * (CFG.num_tables - 1)],
            [[2**63] + [0] * (CFG.num_tables - 1)],  # a list is rejected before any entry is read
        ],
        ids=["float", "bool", "negative", "negative-list", "past-u64-list", "past-range-list"],
    )
    def test_non_integer_or_negative_addresses_are_config_errors(self, rng, bad):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 3)), CFG)
        for probe in (idx.local_candidates, idx.exact_candidates):
            with pytest.raises(ConfigError):
                probe(bad)

    def test_python_int_lists_are_config_errors(self, rng):
        data = make_dataset(rng, 20)
        idx = preprocess(DatasetPartition(0, data), CFG)
        addrs = HashFamily.from_config(CFG).addresses([data[3][1], data[9][1]])
        for probe in (idx.local_candidates, idx.exact_candidates):
            with pytest.raises(ConfigError, match="ndarray, not a list"):
                probe(addrs.tolist())
            with pytest.raises(ConfigError, match="ndarray, not a tuple"):
                probe(tuple(map(tuple, addrs.tolist())))
        assert count_maps(idx.exact_candidates(addrs))[1][9] == CFG.num_tables

    @pytest.mark.parametrize(
        "entry",
        [
            lambda a: a + 0.5,  # a u64 cast would truncate it to a
            lambda a: a + 0.9,
            float,  # integral, but a float
            lambda a: bool(a % 2),  # a u64 cast would probe bucket 1 or 0
            lambda a: np.bool_(a % 2),
        ],
        ids=["plus-half", "plus-0.9", "integral-float", "bool", "numpy-bool"],
    )
    @pytest.mark.parametrize("where", ["every", "first"])
    def test_float_or_bool_list_entries_are_config_errors(self, rng, entry, where):
        data = make_dataset(rng, 20)
        idx = preprocess(DatasetPartition(0, data), CFG)
        addrs = HashFamily.from_config(CFG).addresses([data[7][1]])
        row = addrs[0].tolist()
        bad = [entry(a) for a in row] if where == "every" else [entry(row[0])] + row[1:]
        for probe in (idx.local_candidates, idx.exact_candidates):
            with pytest.raises(ConfigError, match="ndarray, not a list"):
                probe([bad])
            if where == "every":  # as an array, its dtype is float or bool
                with pytest.raises(ConfigError, match="integer address matrix"):
                    probe(np.array([bad]))
        assert count_maps(idx.exact_candidates(addrs))[0][7] == CFG.num_tables
        with pytest.raises(ConfigError, match="table range"):
            idx.exact_candidates(np.array([[2**64 - 1] + row[1:]], dtype=np.uint64))

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


def planted_partition():
    inst = planted_instance(n_background=600, n_queries=20, per_query=8, dim=4096, nnz=24, seed=8)
    return round_robin_partitions(list(inst.dataset), 2)[0], [v for _, v in inst.queries]


def planted_node():
    part, queries = planted_partition()
    return preprocess(part, CFG), queries


HOT_BUCKET = 10_000


def skewed_partition():
    """Near duplicates in Zipf-sized groups, plus HOT_BUCKET copies of one
    vector interleaved with them, so one bucket per table holds >= 10^4 ids."""
    rng = np.random.default_rng(17)
    protos = random_sparse_vectors(rng, 30, 4096, 24)
    sizes = np.minimum(rng.zipf(1.3, size=len(protos)), 200)
    pairs = [vector_with_swaps(rng, protos[g], 1) for g in range(len(protos)) for _ in range(sizes[g])]
    pairs += [protos[0]] * HOT_BUCKET
    order = rng.permutation(len(pairs))
    return DatasetPartition(0, [(i, pairs[j]) for i, j in enumerate(order)]), protos


def skewed_node():
    part, protos = skewed_partition()
    return preprocess(part, CFG), protos


def with_empty_table(node):
    """``node`` with its first table emptied: its buckets and rows cut from
    the directory, which no build makes and no load accepts."""
    cut, n = node.occupied_slots[0], node.vector_count
    return NodeIndex(
        CFG, node.node_id, node.keys[cut:], node.offsets[cut:] - n, node.rows[n:], node.ids
    )


@pytest.mark.parametrize("case", ["planted", "skewed", "empty"])
def test_directory_equals_per_table_build(case):
    part = {
        "planted": lambda: planted_partition()[0],
        "skewed": lambda: skewed_partition()[0],
        "empty": lambda: DatasetPartition(0, []),
    }[case]()
    node = preprocess(part, CFG)
    addrs = HashFamily.from_config(CFG).addresses(part.rows)
    assert_tables_equal_per_table_build(node, addrs, part.ids)
    assert node.occupied_slots == [tb.addrs.size for tb in node.tables]
    # L·R = 2^15 and L·n < 2^32: keys and offsets take 4 bytes
    assert node.keys.dtype == node.offsets.dtype == node.rows.dtype == np.uint32
    assert node.rows.size == CFG.num_tables * node.vector_count
    assert np.array_equal(node.ids, part.ids)  # each id once, in partition order


@pytest.fixture(scope="module", params=["planted", "skewed", "empty-table"])
def probe_case(request):
    node, queries = skewed_node() if request.param == "skewed" else planted_node()
    if request.param == "empty-table":
        node = with_empty_table(node)
    fam = HashFamily.from_config(CFG)
    hits = fam.addresses(queries)
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
        assert (node.heavy_pos.size > 0) == (case == "skewed")
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


def heavy_streams(node: NodeIndex):
    """Per heavy bucket: its table, its finished sketch and its id stream."""
    for j, pos in enumerate(node.heavy_pos.tolist()):
        table = int(node.keys[pos]) // node.config.table_range
        rows = node.rows[node.offsets[pos] : node.offsets[pos + 1]]
        yield table, node.heavy_sketches[j], node.ids[rows]


def assert_heavy_sketches_replay(node: NodeIndex) -> None:
    """The heavy buckets are exactly those over W·B ids, and each one's
    sketch equals an insert_many replay of its bucket into an empty sketch."""
    cells = node.config.sketch_rows * node.config.sketch_cols
    heavy = [
        np.flatnonzero(np.diff(tb.offsets) > cells) + start
        for tb, start in zip(node.tables, np.cumsum([0] + node.occupied_slots))
    ]
    assert node.heavy_pos.tolist() == np.concatenate(heavy).tolist()
    assert len(node.heavy_sketches) == node.heavy_pos.size
    for _, sketch, stream in heavy_streams(node):
        replay = node.empty_sketch()
        replay.insert_many(stream)
        assert sketch == replay


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
        tables = [t for t, _, _ in heavy_streams(node)]
        assert np.bincount(tables, minlength=cfg.num_tables).tolist() == [2] * cfg.num_tables
        # the heavy cells hold odd (count 1) and even (count 0, a real id) arrivals
        parities = set()
        for _, sketch, stream in heavy_streams(node):
            for (r, b), arrived in cell_arrival_counts(sketch, stream).items():
                k = sum(arrived.values())
                assert int(sketch.counts[r, b]) == k % 2
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
        assert node.heavy_pos.size and np.array_equal(loaded.heavy_pos, node.heavy_pos)
        assert loaded.heavy_sketches == node.heavy_sketches
        batch = HashFamily.from_config(cfg).addresses(protos)
        assert loaded.local_candidates(batch) == node.local_candidates(batch)


def spied_probe(node: NodeIndex, batch: np.ndarray):
    """``node.local_candidates(batch)`` and the item count of every
    ``insert_many`` call it made."""
    sizes = []
    insert_many = TopkapiSketch.insert_many

    def spy(sketch, items, slots=None):
        sizes.append(np.asarray(items).size)
        return insert_many(sketch, items, slots)

    with mock.patch.object(TopkapiSketch, "insert_many", spy):
        return node.local_candidates(batch), sizes


class TestProbeEdges:
    """One insert per batch, whatever the batch hits, of the arrivals in the
    light buckets' cells that two or more reach; the stack equals the replay
    oracle's. W·B = 8 throughout."""

    @pytest.mark.parametrize(
        "case, sizes",
        [
            ("all-heavy", [9, 20]),
            ("no-hit", [3, 9]),
            ("repeated-rows", [2, 9, 1]),
            ("W·B", [8, 1]),
            ("W·B+1", [9, 1]),
        ],
    )
    def test_equals_replay_oracle(self, rng, case, sizes):
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, sizes, 1)
        node = preprocess(part, cfg)
        fam = HashFamily.from_config(cfg)
        heavy_tables = sum(size > 8 for size in sizes) * cfg.num_tables
        assert node.heavy_pos.size == heavy_tables  # no two groups share a bucket
        if case == "no-hit":
            absent = [np.setdiff1d(np.arange(64, dtype=np.uint64), tb.addrs)[:2] for tb in node.tables]
            batch = np.column_stack(absent)
        elif case == "repeated-rows":
            batch = fam.addresses([protos[1], protos[0], protos[1], protos[1], protos[2], protos[0]])
        else:
            batch = fam.addresses(protos[:1] * 2 if case == "all-heavy" else protos)
        stack, inserted = spied_probe(node, batch)
        assert stack == replayed_candidates(node, batch)
        replayed = 0
        for row in batch:
            for tb, a in zip(node.tables, row.tolist()):
                stream = bucket_ids(tb, a)
                if 0 < stream.size <= 8:
                    for column in node.empty_sketch()._row_bins(stream).T:
                        reached = np.bincount(column)
                        replayed += int(reached[reached > 1].sum())
        assert inserted == [replayed]
        if case in ("all-heavy", "no-hit"):
            assert inserted == [0]
        if case == "no-hit":
            assert stack == node.empty_sketch(len(batch))


class TestBoundedObservations:
    def test_probed_sketch_size_is_skew_independent(self):
        # a pathologically hot bucket must still be observed at fixed size
        cfg = LshConfig(hashes_per_table=2, num_tables=2, table_range=1 << 10, top_k=2, master_seed=5)
        v = SparseVector([3, 17, 50], 1000)
        small = preprocess(DatasetPartition(0, [(i, v) for i in range(3)]), cfg)
        big = preprocess(DatasetPartition(0, [(i, v) for i in range(500)]), cfg)
        fam = HashFamily.from_config(cfg)
        addr = int(fam.addresses([v])[0, 0])
        observed = [bucket_sketch(idx, 0, addr) for idx in (small, big)]
        footprint = {s.ids.nbytes + s.counts.nbytes for s in observed}
        assert footprint == {16 * cfg.sketch_rows * cfg.sketch_cols}
        assert all(len(s.to_bytes()) <= record_bound(s) for s in observed)

    def test_storage_within_slotwise_sketch_budget(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 300)), CFG)
        raw_bytes = idx.keys.nbytes + idx.offsets.nbytes + idx.rows.nbytes + idx.ids.nbytes
        empty = idx.empty_sketch()
        assert len(empty.to_bytes()) <= record_bound(empty)
        budget = sum(idx.occupied_slots) * (empty.ids.nbytes + empty.counts.nbytes)
        assert raw_bytes <= budget


# Per case: (column, position in it, new value, the error it must raise). A
# header "position" is the byte offset of the field: 4 is the version, 24 the
# vector count. A column position is a directory position, a row's or an
# id's, or a function of the index that gives one; a list of positions takes
# the values that its function gives, in order.
BROKEN_COLUMNS = {
    "version-1": ("header", 4, lambda idx: 1, "version 1 .*rebuild it with `sketchlsh index`"),
    "version-2": ("header", 4, lambda idx: 2, "version 2 .*rebuild it with `sketchlsh index`"),
    "version-3": ("header", 4, lambda idx: 3, "version 3 .*rebuild it with `sketchlsh index`"),
    # the id column holds n ids and the row column L·n rows
    "id-count": ("header", 24, lambda idx: idx.vector_count + 1, "truncated: its header needs"),
    "offsets-start": ("offsets", 0, lambda idx: 1, "offsets do not run from 0"),
    "offsets-end": ("offsets", -1, lambda idx: idx.rows.size - 1, "offsets do not run from 0"),
    "empty-bucket": ("offsets", 1, lambda idx: 0, "offsets do not strictly increase"),
    "offset-past-rows": (
        "offsets", 1, lambda idx: idx.rows.size + 1, "offsets do not strictly increase"
    ),
    # a u32 offset cannot be negative; the bits of -1 read as the largest one
    "offset-at-u32-max": ("offsets", 1, lambda idx: 2**32 - 1, "offsets do not strictly increase"),
    "addrs-order": ("keys", 1, lambda idx: int(idx.keys[0]), "keys do not strictly increase"),
    "addrs-range": (
        "keys", -1, lambda idx: CFG.num_tables * CFG.table_range, "key beyond the last table"
    ),
    # table 1's first bucket, of one id, moved to the end of table 0's key range
    "table-bound": (
        "keys", lambda idx: idx.occupied_slots[0], lambda idx: CFG.table_range - 1,
        "table 0 holds 31 rows for 30 vectors",
    ),
    "row-past-vectors": ("rows", 5, lambda idx: idx.vector_count, "row 30 past the last of 30"),
    "null-id": ("ids", 3, lambda idx: NULL_ID, "null id"),
    # ids 3 and 4 trade places
    "ids-order": ("ids", [3, 4], lambda idx: idx.ids[[4, 3]], "ids do not strictly increase"),
}


class TestExactProbeMemory:
    def test_peak_within_32_bytes_per_walked_id(self):
        # near duplicates in Zipf-sized groups of up to 400: buckets of hundreds
        rng = np.random.default_rng(29)
        protos = random_sparse_vectors(rng, 30, 4096, 24)
        sizes = np.minimum(20 * rng.zipf(1.3, size=len(protos)), 400)
        vecs = [vector_with_swaps(rng, p, 1) for p, size in zip(protos, sizes) for _ in range(size)]
        node = preprocess(DatasetPartition(0, list(enumerate(vecs))), CFG)
        batch = HashFamily.from_config(CFG).addresses(protos)
        walked = int(node._walk(batch)[3].sum())
        assert walked > 5 * node.exact_candidates(batch).ids.size  # most walks repeat a pair
        tracemalloc.start()
        try:
            node.exact_candidates(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (query, id, count) entry per walked id, with its sort, takes about 56 B
        assert peak <= 32 * walked


class TestSketchProbeBounds:
    def test_batch_past_the_key_bound_is_a_config_error(self, rng):
        # a batch is refused when n·L·W·B·max(W·B, A), for A arrivals, passes
        # 2^63: n·L·(W·B)² is 2^65 here
        cfg = LshConfig(
            hashes_per_table=2, num_tables=2, table_range=1 << 8, top_k=2,
            sketch_rows=1 << 16, sketch_cols=1 << 16,
        )
        node = preprocess(DatasetPartition(0, make_dataset(rng, 5)), cfg)
        with pytest.raises(ConfigError, match="too large to probe at once"):
            node.local_candidates(np.zeros((1, 2), dtype=np.uint64))

    def test_batch_within_the_key_bound_probes(self, rng):
        # n·L·W·B is 2^32, so (n·L·W·B)² passes 2^63, but n·L·(W·B)² = 2^52 and
        # n·L·W·B·A, for its at most 4,096 · 5 arrivals, stay within it
        cfg = LshConfig(
            hashes_per_table=2, num_tables=4096, table_range=1 << 8, top_k=2,
            sketch_rows=16, sketch_cols=1 << 16,
        )
        data = make_dataset(rng, 5)
        node = preprocess(DatasetPartition(0, data), cfg)
        batch = HashFamily.from_config(cfg).addresses([data[0][1]])
        merged = node.local_candidates(batch)
        assert merged.ids.shape == (1, 16, 1 << 16)
        # vector 0 is in every bucket the query finds: each table adds (0, 1)
        # to one cell per row, and a row that no other id shares holds (0, 4,096)
        assert merged[0].heavy_hitters(0)[0] == (0, 4096)

    def test_peak_follows_arrivals_not_hits(self):
        # 8 × 256 sketches on a planted batch: a (hits, W, B) stack would take
        # 32 KiB per found bucket, 800 of them
        cfg = LshConfig(
            hashes_per_table=4, num_tables=16, table_range=1 << 18, top_k=8,
            sketch_rows=8, sketch_cols=256,
        )
        inst = planted_instance(n_background=2000, n_queries=50, per_query=8, seed=33)
        node = preprocess(DatasetPartition(0, inst.dataset), cfg)
        batch = HashFamily.from_config(cfg).addresses([v for _, v in inst.queries])
        lengths = node._walk(batch)[3]
        cells = 8 * 256
        # one per (light id, sketch row), and one per cell of a heavy bucket's sketch
        arrivals = 8 * int(lengths[lengths <= cells].sum()) + cells * int((lengths > cells).sum())
        result = len(batch) * cells * 16  # the (n, W, B) ids and counts
        tracemalloc.start()
        try:
            node.local_candidates(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lengths.size > 10 * len(batch)  # most tables find a bucket
        assert peak <= 2 * result + 96 * arrivals


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        data = make_dataset(rng, 40)
        idx = preprocess(DatasetPartition(2, data), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        loaded = NodeIndex.load(path, CFG)
        assert loaded.node_id == 2
        assert loaded.vector_count == idx.vector_count
        for column in ("keys", "offsets", "rows", "ids"):
            built, read = getattr(idx, column), getattr(loaded, column)
            assert built.dtype == read.dtype and np.array_equal(built, read)
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
        # buckets of several ids, and an empty index
        cfg = LshConfig(hashes_per_table=2, num_tables=3, table_range=1 << 11, top_k=4, master_seed=5)
        idx = preprocess(DatasetPartition(1, make_dataset(rng, 1500)), cfg)
        assert int(np.diff(idx.offsets).max()) > 1
        empty = preprocess(DatasetPartition(0, []), cfg)
        for index in (idx, empty):
            path = tmp_path / "index.bin"
            index.save(path)
            blob = path.read_bytes()
            assert blob == reference_index_bytes(index)
            n_keys, n = sum(index.occupied_slots), index.vector_count
            # L·R = 3·2^11: keys and offsets take 4 bytes, as every row does
            assert len(blob) == 40 + 8 * n + 4 * (2 * n_keys + 1) + 4 * cfg.num_tables * n

    def test_loaded_columns_are_views_of_the_file(self, rng, tmp_path):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 20)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        loaded = NodeIndex.load(path, CFG)
        for column in (loaded.keys, loaded.offsets, loaded.rows, loaded.ids):
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
        # each case breaks one invariant of the directory (or the header)
        # and leaves every length intact, but for the vector count's
        column, pos, value, match = BROKEN_COLUMNS[case]
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 30)), CFG)
        path = tmp_path / "index-00000.bin"
        idx.save(path)
        blob = bytearray(path.read_bytes())
        if column == "header":
            struct.pack_into("<Q" if pos == 24 else "<I", blob, pos, value(idx))
        else:
            if callable(pos):
                pos = pos(idx)
            col = getattr(idx, column)
            for p, v in zip(np.atleast_1d(pos), np.atleast_1d(value(idx))):
                at = column_starts(idx)[column] + col.itemsize * (int(p) % col.size)
                struct.pack_into("<Q" if col.itemsize == 8 else "<I", blob, at, int(v))
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


class TestKeyBound:
    def test_table_range_times_tables_of_2_64_builds_saves_loads_and_probes(self, rng, tmp_path):
        # L·R = 2^64: table 1's keys reach 2^64 - 1, and L·R itself is no u64
        cfg = LshConfig(hashes_per_table=2, num_tables=2, table_range=1 << 63, top_k=4, master_seed=7)
        data = make_dataset(rng, 40)
        data += data[:5]  # some buckets of two ids
        node = preprocess(DatasetPartition(0, [(i, v) for i, (_, v) in enumerate(data)]), cfg)
        addrs = HashFamily.from_config(cfg).addresses([v for _, v in data])
        assert int(addrs[:, 1].max()) >= 1 << 62  # table 1 keys in the top quarter of u64
        assert_tables_equal_per_table_build(node, addrs, np.arange(len(data), dtype=np.uint64))
        # the end of the last table comes from the directory length
        assert all(0 < k <= 40 for k in node.occupied_slots)
        assert sum(node.occupied_slots) == node.keys.size
        path = tmp_path / "index.bin"
        node.save(path)
        loaded = NodeIndex.load(path, cfg)
        assert loaded.occupied_slots == node.occupied_slots
        assert loaded.keys.dtype == node.keys.dtype == np.uint64
        batch = np.vstack([addrs[[0, 3, 40]], np.full((1, 2), (1 << 63) - 1, dtype=np.uint64)])
        stack = loaded.local_candidates(batch)
        assert stack == replayed_candidates(loaded, batch) == node.local_candidates(batch)
        assert count_maps(loaded.exact_candidates(batch)) == [
            exact_count_map(loaded, row) for row in batch
        ]
        assert count_maps(loaded.exact_candidates(batch))[2] == {0: 2, 40: 2}

    @pytest.mark.parametrize(
        "table_range, key_type",
        [(1 << 31, np.uint32), (1 << 32, np.uint64)],
        ids=["L·R=2^32", "L·R=2^33"],
    )
    def test_key_width_at_its_bound(self, rng, tmp_path, table_range, key_type):
        # L = 2: L·R = 2^32 is the widest range of u32 keys, and its last
        # key 2^32 - 1 is present; one doubling more needs u64 keys
        cfg = LshConfig(
            hashes_per_table=2, num_tables=2, table_range=table_range, top_k=4, master_seed=7
        )
        addrs = rng.integers(0, table_range, size=(40, 2), dtype=np.uint64)
        addrs[5:9] = addrs[0]  # a bucket of five ids in each table
        addrs[10] = table_range - 1  # the last address of each table
        node = built_from_addresses(cfg, addrs)
        assert int(node.keys[-1]) == 2 * table_range - 1
        assert_tables_equal_per_table_build(node, addrs, np.arange(40, dtype=np.uint64))
        path = tmp_path / "index.bin"
        node.save(path)
        loaded = NodeIndex.load(path, cfg)
        for column in ("keys", "offsets", "rows", "ids"):
            assert getattr(node, column).dtype == getattr(loaded, column).dtype
        assert loaded.keys.dtype == key_type and loaded.offsets.dtype == np.uint32
        absent = np.setdiff1d(np.array([0, 1, table_range - 2], dtype=np.uint64), addrs[:, 0])[0]
        batch = np.vstack([addrs[[0, 10, 20]], np.full((1, 2), absent, dtype=np.uint64)])
        expected = [address_count_map(addrs, row) for row in batch]
        assert expected[0] == {**{i: 2 for i in range(5, 9)}, 0: 2} and expected[-1] == {}
        for index in (node, loaded):
            assert index.local_candidates(batch) == replayed_candidates(index, batch)
            assert count_maps(index.exact_candidates(batch)) == expected
        assert loaded.local_candidates(batch) == node.local_candidates(batch)


def built_from_addresses(cfg: LshConfig, addrs: np.ndarray) -> NodeIndex:
    """The index of ids 0 .. n - 1 whose (n, L) address matrix is ``addrs``:
    :func:`preprocess` with the hash family's addresses replaced by it."""
    vectors = [(i, SparseVector([0], 1)) for i in range(len(addrs))]
    with mock.patch.object(HashFamily, "addresses", lambda family, rows: addrs.copy()):
        return preprocess(DatasetPartition(0, vectors), cfg)


def address_count_map(addrs: np.ndarray, row: np.ndarray) -> dict[int, int]:
    """One query's exact counts read off the (n, L) address matrix: id i
    counts once per table whose address it shares with ``row``."""
    return dict(Counter(np.nonzero(addrs == row)[0].tolist()))


class TestRowBound:
    """u32 row numbers bound a rank to 2^32 - 1 vectors."""

    @pytest.mark.parametrize("count, match", [(2**32, "u32"), (2**32 - 1, "truncated")])
    def test_load_checks_the_vector_count_before_the_sizes(self, rng, tmp_path, count, match):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 10)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, 24, count)
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexFileError, match=match):
            NodeIndex.load(path, CFG)

    def test_preprocess_rejects_a_partition_of_2_32_vectors(self):
        # a stand-in that only claims the size: none that large is built
        part = mock.MagicMock(spec=DatasetPartition)
        part.__len__.return_value = 2**32
        with pytest.raises(ConfigError, match="u32"):
            preprocess(part, CFG)


def write_rows(path, index: NodeIndex, rows: dict[int, int]) -> None:
    """Overwrite the saved file's ``rows`` column at each position of
    ``rows`` with the row number it maps to; every length stays."""
    blob = bytearray(path.read_bytes())
    for at, row in rows.items():
        struct.pack_into("<I", blob, column_starts(index)["rows"] + 4 * at, row)
    path.write_bytes(bytes(blob))


def repeat_a_row(path, index: NodeIndex, pos: int) -> None:
    """Overwrite the last row of the bucket at directory position ``pos`` in
    the saved file with the bucket's first row, so the bucket holds that
    row's id twice; every length and other check holds."""
    write_rows(path, index, {int(index.offsets[pos + 1]) - 1: int(index.rows[index.offsets[pos]])})


class TestRepeatedIds:
    def test_in_a_heavy_bucket_is_a_data_error(self, rng, tmp_path):
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, [20, 2, 1], 1)
        node = preprocess(part, cfg)
        path = tmp_path / "index-00000.bin"
        node.save(path)
        in_table_2 = node.keys[node.heavy_pos] // cfg.table_range == 2
        repeat_a_row(path, node, int(node.heavy_pos[in_table_2][0]))
        with pytest.raises(IndexFileError, match="rows do not rise within a bucket of more than 8 ids"):
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
        repeat_a_row(path, node, node.occupied_slots[0] + pos)
        loaded = NodeIndex.load(path, cfg)
        stream = bucket_ids(loaded.tables[1], int(tb.addrs[pos]))
        assert stream.size == size and np.unique(stream).size == size - 1
        batch = HashFamily.from_config(cfg).addresses(protos + protos[:1])
        assert loaded.local_candidates(batch) == replayed_candidates(loaded, batch)
        assert loaded.local_candidates(batch) != node.local_candidates(batch)
        # the repeated row counts twice, the row it overwrote not at all
        exact = count_maps(loaded.exact_candidates(batch))
        assert exact == [exact_count_map(loaded, row) for row in batch]
        assert exact != count_maps(node.exact_candidates(batch))

    def test_swapped_rows_in_a_heavy_bucket_are_a_data_error(self, rng, tmp_path):
        # the bucket's ids stay distinct, but its rows no longer rise
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, [20, 2, 1], 1)
        node = preprocess(part, cfg)
        path = tmp_path / "index-00000.bin"
        node.save(path)
        pos = int(node.heavy_pos[0])
        first, last = int(node.offsets[pos]), int(node.offsets[pos + 1]) - 1
        write_rows(path, node, {first: int(node.rows[last]), last: int(node.rows[first])})
        with pytest.raises(IndexFileError, match="rows do not rise within a bucket of more than 8 ids"):
            NodeIndex.load(path, cfg)
        save_lsh_config(cfg, tmp_path / "config.txt")
        queries = tmp_path / "q.txt"
        queries.write_text(format_record(protos[0]) + "\n")
        assert main([
            "query", "--indexes", str(tmp_path), "--queries", str(queries),
            "--world-size", "1", "--mode", "sketch_tree", "--out", str(tmp_path / "r.txt"),
        ]) == 3

    def test_a_row_in_two_heavy_buckets_of_a_table_loads_and_probes_as_the_replay(
        self, rng, tmp_path
    ):
        cfg = heavy_config(2, 4)
        (part,), protos = grouped_partitions(rng, [20, 20, 1], 1)
        node = preprocess(part, cfg)
        path = tmp_path / "index.bin"
        node.save(path)
        in_table_0 = node.keys[node.heavy_pos] // cfg.table_range == 0
        a, b = node.heavy_pos[in_table_0].tolist()

        def span(pos):
            return node.rows[node.offsets[pos] : node.offsets[pos + 1]]

        if span(a)[-1] < span(b)[-2]:  # then b's last row rises past a's second to last
            a, b = b, a
        # a's last row overwrites b's, where it still rises
        row = int(span(a)[-1])
        write_rows(path, node, {int(node.offsets[b + 1]) - 1: row})
        loaded = NodeIndex.load(path, cfg)
        assert np.count_nonzero(loaded.rows[: loaded.offsets[loaded.occupied_slots[0]]] == row) == 2
        batch = HashFamily.from_config(cfg).addresses(protos)
        assert loaded.local_candidates(batch) == replayed_candidates(loaded, batch)
        assert loaded.local_candidates(batch) != node.local_candidates(batch)
        exact = count_maps(loaded.exact_candidates(batch))
        assert exact == [exact_count_map(loaded, r) for r in batch]
        assert exact != count_maps(node.exact_candidates(batch))


def reference_index_bytes(idx: NodeIndex) -> bytes:
    """The version-4 index file assembled field by field with struct from
    the per-table view: the header, the ids once in partition order, then
    every table's keys t·R + address, its offsets shifted by the rows
    before it, and its rows, each id's place among the ids. Keys are u32
    when L·R <= 2^32 and offsets when L·n < 2^32; u64 otherwise."""
    cfg = idx.config
    ids = idx.ids.tolist()
    row_of = {vid: r for r, vid in enumerate(ids)}
    keys, offsets, rows = [], [0], []
    for t, tb in enumerate(idx.tables):
        keys += [t * cfg.table_range + a for a in tb.addrs.tolist()]
        offsets += [len(rows) + o for o in tb.offsets[1:].tolist()]
        rows += [row_of[vid] for vid in tb.ids.tolist()]
    key = "I" if cfg.num_tables * cfg.table_range <= 2**32 else "Q"
    offset = "I" if len(rows) < 2**32 else "Q"
    return b"".join([
        struct.pack(
            "<IIQIIQQ", 0x58494C53, 4, cfg.fingerprint(), idx.node_id, cfg.num_tables,
            len(ids), len(keys),
        ),
        struct.pack(f"<{len(ids)}Q", *ids),
        struct.pack(f"<{len(keys)}{key}", *keys),
        struct.pack(f"<{len(offsets)}{offset}", *offsets),
        struct.pack(f"<{len(rows)}I", *rows),
    ])


def column_starts(idx: NodeIndex) -> dict[str, int]:
    """The file offset where each column of a saved index starts."""
    ids = struct.calcsize("<IIQIIQQ")
    keys = ids + 8 * idx.ids.size
    offsets = keys + idx.keys.nbytes
    return {"ids": ids, "keys": keys, "offsets": offsets, "rows": offsets + idx.offsets.nbytes}


def section_boundaries(idx: NodeIndex) -> list[int]:
    """File offsets where the header and each column of a saved index end."""
    starts = column_starts(idx)
    return [starts["ids"], starts["keys"], starts["offsets"], starts["rows"], starts["rows"] + idx.rows.nbytes]
