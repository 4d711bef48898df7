import struct
from collections import Counter

import numpy as np
import pytest

from sketchlsh.core import (
    ConfigError,
    DatasetPartition,
    LshConfig,
    SketchLshError,
    SparseVector,
)
from sketchlsh.hashing import HashFamily
from sketchlsh.index import NodeIndex, preprocess
from sketchlsh.synthetic import (
    planted_instance,
    random_sparse_vectors,
    round_robin_partitions,
    vector_with_swaps,
)

from oracles import replay_cells, replayed_sketch

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
            hits = idx.sketch_at(t, int(addrs[t])).heavy_hitters(0)
            assert hits.entries == ((42, 1),)

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
        probe = idx.sketch_at(0, int(addrs[0]))
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

    def test_partition_invariance_exact_level(self, rng):
        data = make_dataset(rng, 120)
        whole = event_multiset(preprocess(DatasetPartition(0, data), CFG))
        for m in (2, 3, 4):
            parts = round_robin_partitions(data, m)
            combined: Counter = Counter()
            for p in parts:
                combined += event_multiset(preprocess(p, CFG))
            assert combined == whole

    def test_concurrent_build_matches_serial(self, rng):
        data = make_dataset(rng, 200)
        serial = preprocess(DatasetPartition(0, data), CFG, workers=1)
        threaded = preprocess(DatasetPartition(0, data), CFG, workers=4)
        for a, b in zip(serial.tables, threaded.tables):
            assert np.array_equal(a.addrs, b.addrs)
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.ids, b.ids)


class TestLocalCandidates:
    def test_all_empty_slots_yield_empty_sketch(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 5)), CFG)
        probe = 999
        assert all(idx.tables[t].bucket(probe).size == 0 for t in range(CFG.num_tables))
        merged = idx.local_candidates(np.full(CFG.num_tables, probe, dtype=np.uint64))
        assert merged == idx.empty_sketch()

    def test_single_vector_count_equals_tables(self):
        cfg = LshConfig(hashes_per_table=2, num_tables=8, table_range=1 << 12, top_k=2, master_seed=13)
        v = SparseVector([5, 9, 700], 1024)
        idx = preprocess(DatasetPartition(0, [(3, v)]), cfg)
        fam = HashFamily.from_config(cfg)
        merged = idx.local_candidates(fam.addresses(v))
        assert merged.heavy_hitters(0).entries == ((3, 8),)

    def test_node_split_is_exact_count_invariant(self, rng):
        data = make_dataset(rng, 60)
        cfg = CFG
        fam = HashFamily.from_config(cfg)
        query = data[17][1]
        addrs = fam.addresses(query)
        whole = preprocess(DatasetPartition(0, data), cfg)
        parts = round_robin_partitions(data, 2)
        nodes = [preprocess(p, cfg) for p in parts]
        whole_counts = whole.exact_candidates(addrs)
        split_counts: Counter = Counter()
        for node in nodes:
            split_counts.update(node.exact_candidates(addrs))
        assert dict(split_counts) == whole_counts

    def test_validates_address_shape_and_range(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 3)), CFG)
        with pytest.raises(ConfigError):
            idx.local_candidates(np.zeros(2, dtype=np.uint64))
        with pytest.raises(ConfigError):
            idx.local_candidates(np.full(CFG.num_tables, CFG.table_range, dtype=np.uint64))
        with pytest.raises(ConfigError):
            idx.local_candidates(np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(ConfigError):
            idx.local_candidates(np.zeros((2, 2, CFG.num_tables), dtype=np.uint64))


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


@pytest.fixture(scope="module", params=["planted", "skewed"])
def probe_case(request):
    node, queries = planted_node() if request.param == "planted" else skewed_node()
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
        ids = node.tables[t].bucket(addr)
        if ids.size:
            if (t, addr) not in replayed:
                replayed[(t, addr)] = replayed_sketch(merged, ids)
            merged = merged.merge(replayed[(t, addr)])
    return merged


class TestBatchProbe:
    def test_stack_equals_rows_and_replay_reference(self, probe_case):
        case, node, batch = probe_case
        if case == "skewed":  # the first query is the hot vector itself
            sizes = [node.tables[t].bucket(int(a)).size for t, a in enumerate(batch[0])]
            assert min(sizes) >= HOT_BUCKET
        stack = node.local_candidates(batch)
        assert stack.ids.shape == (len(batch), CFG.sketch_rows, CFG.sketch_cols)
        rows = [node.local_candidates(row) for row in batch]
        replayed: dict = {}
        reference = [reference_local_candidates(node, row, replayed) for row in batch]
        assert list(stack) == rows == reference
        assert rows[-1] == node.empty_sketch()  # the all-empty row

    def test_single_row_batch(self, probe_case):
        _, node, batch = probe_case
        one = node.local_candidates(batch[:1])
        assert len(one) == 1 and one[0] == node.local_candidates(batch[0])


class TestBoundedObservations:
    def test_probed_sketch_size_is_skew_independent(self):
        # a pathologically hot bucket must still be observed at fixed size
        cfg = LshConfig(hashes_per_table=2, num_tables=2, table_range=1 << 10, top_k=2, master_seed=5)
        v = SparseVector([3, 17, 50], 1000)
        small = preprocess(DatasetPartition(0, [(i, v) for i in range(3)]), cfg)
        big = preprocess(DatasetPartition(0, [(i, v) for i in range(500)]), cfg)
        fam = HashFamily.from_config(cfg)
        addr = int(fam.addresses(v)[0])
        assert len(small.sketch_at(0, addr).to_bytes()) == len(big.sketch_at(0, addr).to_bytes())

    def test_storage_within_slotwise_sketch_budget(self, rng):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 300)), CFG)
        raw_bytes = sum(t.addrs.nbytes + t.offsets.nbytes + t.ids.nbytes for t in idx.tables)
        budget = sum(idx.occupied_slots) * len(idx.empty_sketch().to_bytes())
        assert raw_bytes <= budget


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
        addrs = fam.addresses(data[11][1])
        assert loaded.local_candidates(addrs) == idx.local_candidates(addrs)

    def test_config_mismatch_rejected(self, rng, tmp_path):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 5)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        other = LshConfig(hashes_per_table=4, num_tables=8, table_range=1 << 12, top_k=4, master_seed=91)
        with pytest.raises(ConfigError):
            NodeIndex.load(path, other)

    def test_file_equals_per_bucket_reference(self, rng, tmp_path):
        # buckets of several ids, and more of them than one save chunk holds
        cfg = LshConfig(hashes_per_table=2, num_tables=3, table_range=1 << 11, top_k=4, master_seed=5)
        idx = preprocess(DatasetPartition(1, make_dataset(rng, 1500)), cfg)
        assert max(t.occupied for t in idx.tables) > 512
        assert max(int(np.diff(t.offsets).max()) for t in idx.tables) > 1
        path = tmp_path / "index.bin"
        idx.save(path)
        assert path.read_bytes() == reference_index_bytes(idx)

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

    def test_trailing_bytes_and_bad_record_length_are_typed(self, rng, tmp_path):
        idx = preprocess(DatasetPartition(0, make_dataset(rng, 10)), CFG)
        path = tmp_path / "index.bin"
        idx.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\0")
        with pytest.raises(SketchLshError):
            NodeIndex.load(path, CFG)
        first_length = section_boundaries(idx)[1] + 8  # after table 0's count and first address
        bad = bytearray(blob)
        bad[first_length] ^= 1
        path.write_bytes(bytes(bad))
        with pytest.raises(SketchLshError):
            NodeIndex.load(path, CFG)


def reference_index_bytes(idx: NodeIndex) -> bytes:
    """The index file assembled with a per-bucket loop over sketch_at."""
    cfg = idx.config
    parts = [
        struct.pack("<IIQIIQ", 0x58494C53, 1, cfg.fingerprint(), idx.node_id, cfg.num_tables, idx.vector_count)
    ]
    for t, tb in enumerate(idx.tables):
        parts.append(struct.pack("<Q", tb.occupied))
        for addr in tb.addrs.tolist():
            parts.append(struct.pack("<Q", addr) + idx.sketch_at(t, addr).to_bytes())
    parts.append(b"XBKT")
    for tb in idx.tables:
        parts.append(struct.pack("<QQ", tb.addrs.size, tb.ids.size))
        parts += [tb.addrs.astype("<u8").tobytes(), tb.offsets.astype("<i8").tobytes(), tb.ids.astype("<u8").tobytes()]
    return b"".join(parts)


def section_boundaries(idx: NodeIndex) -> list[int]:
    """File offsets where each section and length field of a saved index ends."""
    record = 8 + len(idx.empty_sketch().to_bytes())
    off = struct.calcsize("<IIQIIQ")
    cuts = [off]
    for tb in idx.tables:
        off += 8
        cuts.append(off)
        off += tb.occupied * record
        cuts.append(off)
    off += 4  # bucket section tag
    cuts.append(off)
    for tb in idx.tables:
        for nbytes in (16, 8 * tb.addrs.size, 8 * tb.offsets.size, 8 * tb.ids.size):
            off += nbytes
            cuts.append(off)
    return cuts
