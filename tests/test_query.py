import dataclasses
import hashlib
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchlsh import query
from sketchlsh.cluster import (
    FRAME_ALLGATHER,
    FRAME_REDUCE,
    CollectiveError,
    ExactCounts,
    SimulatedCluster,
    SimulatedTransport,
    TransportError,
)
from sketchlsh.core import (
    MAX_TABLES,
    NULL_ID,
    ConfigError,
    DatasetPartition,
    LshConfig,
    SketchLshError,
    SparseVector,
)
from sketchlsh.hashing import HashFamily
from sketchlsh.index import NodeIndex, preprocess
from sketchlsh.query import (
    MODES,
    QueryBatch,
    QueryMetrics,
    QueryResult,
    cosine_similarity,
    distance_counter,
    query_batch,
    s_at_k,
    top_k_extract,
)
from sketchlsh.sketch import TopkapiSketch, row_seeds_from_master
from sketchlsh.synthetic import (
    planted_instance,
    random_sparse_vectors,
    round_robin_partitions,
)

from oracles import (
    column_width,
    count_maps,
    dense_record,
    exact_counts,
    run_tcp_threads,
    top_k_counts,
)
import tcp_worker


def run_modes(dataset, queries, cfg, m, mode):
    parts = round_robin_partitions(dataset, m)
    indexes = [preprocess(p, cfg) for p in parts]
    batch = QueryBatch(queries)
    cluster = SimulatedCluster(m)
    outs = cluster.run(lambda tr: query_batch(indexes[tr.rank], batch, tr, mode))
    return outs[0]


# small ids, ids near 2^64 - 2 and the null id, so that one id often
# lands in several rows of a member and some cells are null
CELL_IDS = (0, 1, 2, 3, NULL_ID - 2, NULL_ID - 1, NULL_ID)


@st.composite
def sketch_stacks(draw):
    """A stack of random cells, some of them count-0 cells that hold a real
    id, and maybe one member with no candidates at all."""
    n, rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    size = n * rows * cols
    ids = draw(st.lists(st.sampled_from(CELL_IDS), min_size=size, max_size=size))
    counts = st.one_of(st.integers(0, 4), st.just((1 << 64) - 1))
    stack = TopkapiSketch(rows, cols, row_seeds_from_master(1, rows), members=n)
    stack.ids[...] = np.array(ids, dtype=np.uint64).reshape(stack.ids.shape)
    stack.counts[...] = np.array(
        draw(st.lists(counts, min_size=size, max_size=size)), dtype=np.uint64
    ).reshape(stack.ids.shape)
    if draw(st.booleans()):
        stack.counts[draw(st.integers(0, n - 1))] = 0
    return stack


class TestTopKExtract:
    @settings(max_examples=300, deadline=None, database=None)
    @given(stack=sketch_stacks(), k=st.integers(1, 14))  # up to past the 12 cells of a member
    def test_stack_ranking_equals_heavy_hitters(self, stack, k):
        assert top_k_extract(stack, k) == tuple(m.heavy_hitters(0)[:k] for m in stack)

    def test_fewer_than_k_returns_all(self):
        assert top_k_extract(exact_counts([{3: 2}]), 5) == (((3, 2),),)

    def test_tie_breaks_by_ascending_id(self):
        counts = exact_counts([{7: 5, 2: 5, 9: 3}])
        assert top_k_extract(counts, 2) == (((2, 5), (7, 5)),)

    def test_zipf_matches_sort_oracle(self, rng):
        maps = [Counter(int(x) % 300 for x in rng.zipf(1.4, size=5000)) for _ in range(3)]
        got = top_k_extract(exact_counts(maps), 10)
        oracle = [sorted(m.items(), key=lambda ic: (-ic[1], ic[0]))[:10] for m in maps]
        assert [list(hits) for hits in got] == oracle

    def test_batch_equals_per_query_oracle(self, rng):
        # empty queries, queries with fewer than k ids and queries with ties
        maps = [
            {int(i): int(c) for i, c in rng.integers(1, 6, size=(int(size), 2))}
            for size in rng.integers(0, 12, size=40)
        ]
        for k in (1, 3, 8):
            got = top_k_extract(exact_counts(maps), k)
            assert got == tuple(top_k_counts(m, k) for m in maps)

    def test_sketch_source_and_zero_exclusion(self):
        stack = TopkapiSketch(1, 1, row_seeds_from_master(3, 1), members=2)
        # member 0 holds (11, 4); in member 1, 6 counts 5 down to 0
        stack.insert_many(np.array([11, 11, 11, 11, 5, 6], dtype=np.uint64), [0, 0, 0, 0, 1, 1])
        assert (int(stack.ids[1, 0, 0]), int(stack.counts[1, 0, 0])) == (5, 0)
        assert top_k_extract(stack, 3) == (((11, 4),), ())

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(CELL_IDS[:-1]), st.integers(1, 3)),
            max_size=40,
        ),
        combine=st.sampled_from([np.add, np.maximum]),  # the exact and the sketch reduce
        k=st.integers(1, 8),
    )
    def test_ranking_by_query_and_count_equals_the_three_key_order(self, entries, combine, k):
        # few ids and counts: most queries hold ties, which the ids' stored order breaks
        queries, ids, counts = np.array(entries, dtype=np.uint64).reshape(-1, 3).T
        summed = ExactCounts.summed(4, queries, ids, counts, combine)
        reference = np.lexsort((summed.ids, ~summed.counts, summed.queries()))
        assert np.array_equal(np.lexsort((~summed.counts, summed.queries())), reference)
        assert top_k_extract(summed, k) == tuple(top_k_counts(m, k) for m in count_maps(summed))

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigError):
            top_k_extract(exact_counts([]), 0)

    @pytest.mark.parametrize("k", [2**63, 2**64 - 1, 2**70])
    def test_k_past_int64_ranks_every_candidate(self, k):
        # raised OverflowError: Python int too large to convert to C long
        maps = [{7: 5, 2: 5, 9: 3}, {}, {4: 1}]
        assert top_k_extract(exact_counts(maps), k) == top_k_extract(exact_counts(maps), 2**63 - 1)
        assert top_k_extract(exact_counts([]), k) == ()
        stack = TopkapiSketch(1, 2, row_seeds_from_master(3, 1), members=2)
        stack.insert_many(np.array([11, 11, 5, 6], dtype=np.uint64), [0, 0, 1, 1])
        assert top_k_extract(stack, k) == top_k_extract(stack, 2**63 - 1)


# sha256 of every QueryResult's bytes for tcp_worker's instance (seed 11)
# at m = 1, 2, 4 in every mode; any change to a result shows here. Taken
# while every stack member still carried its own header: the results did
# not change with the one-header record.
PINNED_RESULTS = "ff094fe55d5a5708b39f0742b9c97a25f67be7030f4e69a3a4607f15245593c4"
# sha256 of rank 0's reduced bytes and every rank's ReduceStats for the same
# runs; any change to a reduced byte or a reduce counter shows here. Re-pinned
# when the sketch modes' reduce payload became the masked stack, and again
# when its columns took their fewest bytes: each time the reduced bytes and
# every counter but the byte counts of the sketch modes stayed. Re-pinned
# once more when that masked form became the sketch record and lost the
# dense header's length word: the reduced stacks' cells and every counter
# but the byte counts stayed, and each sketch-mode send shrank by 4 bytes.
PINNED_REDUCED = "8d36b82256c36d5e9ced84a102911d0c74114a4ad315201a446077a93aaea0b7"


class TestQueryBatchPipeline:
    def test_results_reduced_bytes_and_stats_are_pinned(self):
        results, reduced = hashlib.sha256(), hashlib.sha256()
        for m in (1, 2, 4):
            inst, _cfg, indexes = tcp_worker.build_state(11, m)
            batch = QueryBatch(inst.queries)
            for mode in MODES:
                metrics = [QueryMetrics() for _ in range(m)]
                out = SimulatedCluster(m).run(
                    lambda tr: query_batch(
                        indexes[tr.rank], batch, tr, mode, metrics=metrics[tr.rank]
                    )
                )
                for result in out[0]:
                    results.update(result.to_bytes())
                reduced.update(metrics[0].reduced.to_bytes())
                for mt in metrics:
                    reduced.update(struct.pack("<5Q", *dataclasses.astuple(mt.reduce_stats)))
        assert results.hexdigest() == PINNED_RESULTS
        assert reduced.hexdigest() == PINNED_REDUCED

    @pytest.mark.parametrize("mode", ["sketch_tree", "sketch_linear"])
    def test_sketch_batch_sends_one_header(self, mode):
        # one header, one mask bit per cell of the batch, two column widths,
        # and per cell that is not (null, 0) in rank 1's stack its id and its
        # count at those widths; fewer bytes than its dense record
        inst, cfg, indexes = tcp_worker.build_state(11, 2)
        batch = QueryBatch(inst.queries)
        metrics = [QueryMetrics() for _ in range(2)]
        SimulatedCluster(2).run(
            lambda tr: query_batch(indexes[tr.rank], batch, tr, mode, metrics=metrics[tr.rank])
        )
        w, b, n = cfg.sketch_rows, cfg.sketch_cols, len(batch)
        addresses = HashFamily.from_config(cfg).addresses([v for _, v in batch.queries])
        local = indexes[1].local_candidates(addresses)
        live = (local.ids != np.uint64(NULL_ID)) | (local.counts > 0)
        cell = column_width(local.ids[live]) + column_width(local.counts[live])
        assert cell == 2 + 1  # ids below 2^16, counts below 2^8
        sent = metrics[1].reduce_stats.bytes_sent
        assert sent == 8 + 8 * w + (n * w * b + 7) // 8 + 2 + cell * int(live.sum())
        assert sent == len(local.to_bytes())
        assert sent < len(dense_record(local)) == 12 + 8 * w + 16 * n * w * b
        assert metrics[0].reduce_stats.bytes_received == sent

    def test_hash_family_is_built_once_per_index_on_first_query(self, monkeypatch):
        inst, cfg, indexes = tcp_worker.build_state(11, 2)
        assert all("hash_family" not in vars(idx) for idx in indexes)
        built = []
        from_config = HashFamily.from_config
        monkeypatch.setattr(
            HashFamily, "from_config", lambda config: built.append(config) or from_config(config)
        )
        batch = QueryBatch(inst.queries)
        outs = [
            SimulatedCluster(2).run(lambda tr: query_batch(indexes[tr.rank], batch, tr, mode))[0]
            for mode in MODES
        ]
        assert built == [cfg, cfg]  # one per rank's index, on its first batch
        assert outs == [run_modes(inst.dataset, inst.queries, cfg, 2, mode) for mode in MODES]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_allgather_and_at_most_one_reduce_send_per_rank(self, monkeypatch, m):
        inst, _cfg, indexes = tcp_worker.build_state(11, m)
        batch = QueryBatch(inst.queries)
        sent = []
        send = SimulatedTransport.send

        def counting_send(tr, dst, frame):
            sent.append((tr.rank, frame.frame_type, len(frame.payload)))
            send(tr, dst, frame)

        monkeypatch.setattr(SimulatedTransport, "send", counting_send)
        for mode in MODES:
            sent.clear()
            SimulatedCluster(m).run(lambda tr: query_batch(indexes[tr.rank], batch, tr, mode))
            for rank in range(m):
                types = sorted(t for r, t, _ in sent if r == rank)
                # one allgather ring of m - 1 steps; every rank but 0 sends one reduce frame
                assert types == [FRAME_ALLGATHER] * (m - 1) + [FRAME_REDUCE] * (rank > 0)
            # the allgather carries only the config and mode fingerprint, never addresses
            assert [n for _, t, n in sent if t == FRAME_ALLGATHER] == [8] * m * (m - 1)

    def test_planted_vector_ranks_first_with_near_full_count(self, rng):
        cfg = LshConfig(hashes_per_table=4, num_tables=16, table_range=1 << 16, top_k=4, master_seed=31)
        vecs = random_sparse_vectors(rng, 300, 1 << 14, 30)
        dataset = [(i, v) for i, v in enumerate(vecs)]
        planted = dataset[123][1]
        results = run_modes(dataset, [(900, planted)], cfg, 1, "sketch_tree")
        assert results[0].hits[0][0] == 123
        assert results[0].hits[0][1] >= 14  # identical vector collides in every table

    @pytest.mark.parametrize("mode", MODES)
    def test_top_k_may_be_any_u64(self, rng, mode):
        # past 2^63 - 1 every query raised OverflowError
        vecs = random_sparse_vectors(rng, 20, 128, 6)
        dataset = list(enumerate(vecs))
        queries = [(0, vecs[3]), (1, vecs[4])]

        def hits(top_k):
            cfg = LshConfig(hashes_per_table=2, num_tables=3, table_range=64, sketch_cols=4, top_k=top_k)
            return [r.hits for r in run_modes(dataset, queries, cfg, 2, mode)]

        assert hits(2**63) == hits(2**64 - 1) == hits(2**63 - 1)

    def test_empty_index_gives_empty_hits(self):
        cfg = LshConfig(hashes_per_table=2, num_tables=4, table_range=1 << 10, top_k=3, master_seed=8)
        results = run_modes([], [(0, SparseVector([4, 9], 100))], cfg, 1, "sketch_tree")
        assert results[0].hits == ()

    def test_exact_mode_invariant_across_world_sizes(self, rng):
        cfg = LshConfig(hashes_per_table=3, num_tables=8, table_range=1 << 14, top_k=6, master_seed=77)
        vecs = random_sparse_vectors(rng, 400, 1 << 13, 25)
        dataset = [(i, v) for i, v in enumerate(vecs)]
        queries = [(1000 + i, dataset[i][1]) for i in range(25)]
        blobs = {}
        for m in (1, 2, 4, 8):
            results = run_modes(dataset, queries, cfg, m, "exact")
            blobs[m] = b"".join(r.to_bytes() for r in results)
        assert blobs[1] == blobs[2] == blobs[4] == blobs[8]

    def test_deterministic_repeat_runs(self, rng):
        cfg = LshConfig(hashes_per_table=3, num_tables=8, table_range=1 << 14, top_k=4, master_seed=7)
        vecs = random_sparse_vectors(rng, 200, 1 << 13, 20)
        dataset = [(i, v) for i, v in enumerate(vecs)]
        queries = [(500, dataset[3][1]), (501, dataset[9][1])]
        a = run_modes(dataset, queries, cfg, 2, "sketch_tree")
        b = run_modes(dataset, queries, cfg, 2, "sketch_tree")
        assert [r.to_bytes() for r in a] == [r.to_bytes() for r in b]

    def test_zero_distance_computations_in_sketch_modes(self, rng):
        cfg = LshConfig(hashes_per_table=3, num_tables=8, table_range=1 << 14, top_k=4, master_seed=3)
        vecs = random_sparse_vectors(rng, 150, 1 << 13, 20)
        dataset = [(i, v) for i, v in enumerate(vecs)]
        queries = [(700 + i, dataset[i][1]) for i in range(5)]
        distance_counter.reset()
        for mode in ("sketch_tree", "sketch_linear"):
            run_modes(dataset, queries, cfg, 2, mode)
        assert distance_counter.count == 0
        # the similarity metric is instrumented separately, on demand
        cosine_similarity(dataset[0][1], dataset[1][1])
        assert distance_counter.count == 1

    def test_sketch_tree_agrees_with_exact_oracle(self):
        # planted instance: exact mode is the reference ranking
        inst = planted_instance(10_000, 200, 8, dim=1 << 16, nnz=40, swaps=2, seed=5)
        cfg = LshConfig(hashes_per_table=8, num_tables=24, table_range=1 << 18, top_k=8, master_seed=11)
        tree = run_modes(list(inst.dataset), list(inst.queries), cfg, 2, "sketch_tree")
        exact = run_modes(list(inst.dataset), list(inst.queries), cfg, 2, "exact")
        agree = sum(
            {i for i, _ in t.hits} == {i for i, _ in e.hits}
            for t, e in zip(tree, exact)
        )
        assert agree / len(tree) >= 0.95

    def test_recall_never_drops_when_tables_grow(self):
        # planted neighbors at moderate similarity; more tables, more recall
        inst = planted_instance(2000, 200, 4, dim=1 << 14, nnz=30, swaps=6, seed=17)

        def recall(num_tables):
            cfg = LshConfig(
                hashes_per_table=4, num_tables=num_tables, table_range=1 << 16,
                top_k=4, master_seed=23,
            )
            results = run_modes(list(inst.dataset), list(inst.queries), cfg, 1, "sketch_tree")
            rates = []
            for r in results:
                want = inst.planted[r.query_id]
                got = {i for i, _ in r.hits}
                rates.append(len(want & got) / len(want))
            return float(np.mean(rates))

        assert recall(32) >= recall(8)

    @pytest.mark.parametrize(
        "field, value", [("master_seed", 2), ("num_tables", 6)], ids=["seed", "num_tables"]
    )
    def test_config_mismatch_aborts_before_probing(self, rng, monkeypatch, field, value):
        # a peer whose rows have another width is still a config mismatch
        vecs = random_sparse_vectors(rng, 20, 1 << 10, 10)
        dataset = [(i, v) for i, v in enumerate(vecs)]
        base = LshConfig(hashes_per_table=3, num_tables=4, table_range=1 << 10, top_k=2, master_seed=1)
        cfgs = [base, dataclasses.replace(base, **{field: value})]
        parts = round_robin_partitions(dataset, 2)
        indexes = [preprocess(p, cfgs[r]) for r, p in enumerate(parts)]
        probes = []
        for name in ("local_candidates", "exact_candidates"):
            monkeypatch.setattr(NodeIndex, name, lambda *a, name=name: probes.append(name))
        batch = QueryBatch([(0, dataset[0][1]), (1, dataset[1][1]), (2, dataset[2][1])])

        def rank_main(tr, mode):
            try:
                query_batch(indexes[tr.rank], batch, tr, mode)
            except ConfigError as exc:
                return exc

        for mode in MODES:
            errors = SimulatedCluster(2, default_timeout=2.0).run(lambda tr: rank_main(tr, mode))
            assert all("mismatch" in str(e) and "[1]" in str(e) for e in errors)
        assert probes == []

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    @pytest.mark.parametrize(
        "modes",
        [("exact", "sketch_tree"), ("sketch_tree", "sketch_tree", "sketch_linear"),
         ("sketch_tree", "sketch_linear")],
        ids=["exact-tree", "one-linear-of-3", "tree-linear"],
    )
    def test_mode_mismatch_aborts_every_rank_before_probing(self, monkeypatch, backend, modes):
        m = len(modes)
        inst, _cfg, indexes = tcp_worker.build_state(11, m)
        batch = QueryBatch(inst.queries)
        probes = []
        for name in ("local_candidates", "exact_candidates"):
            monkeypatch.setattr(NodeIndex, name, lambda *a, name=name: probes.append(name))

        def rank_main(tr):
            try:
                query_batch(indexes[tr.rank], batch, tr, modes[tr.rank])
            except ConfigError as exc:
                return exc

        if backend == "sim":
            errors = SimulatedCluster(m, default_timeout=2.0).run(rank_main)
        else:
            errors = run_tcp_threads(m, rank_main, io_timeout=5.0)
        assert all("configuration or mode mismatch" in str(e) for e in errors)
        assert probes == []

    def test_unknown_mode_rejected(self, rng):
        vecs = random_sparse_vectors(rng, 5, 1 << 10, 5)
        dataset = [(i, v) for i, v in enumerate(vecs)]
        idx = preprocess(DatasetPartition(0, dataset), LshConfig(master_seed=4))
        batch = QueryBatch([(0, dataset[0][1])])
        with pytest.raises(ConfigError):
            query_batch(idx, batch, SimulatedCluster(1).transport(0), "bogus")

    def test_metrics_populated(self, rng):
        cfg = LshConfig(hashes_per_table=3, num_tables=4, table_range=1 << 10, top_k=2, master_seed=5)
        vecs = random_sparse_vectors(rng, 30, 1 << 10, 10)
        dataset = [(i, v) for i, v in enumerate(vecs)]
        idx = preprocess(DatasetPartition(0, dataset), cfg)
        batch = QueryBatch([(0, dataset[0][1])])
        metrics = QueryMetrics()
        results = query_batch(idx, batch, SimulatedCluster(1).transport(0), "sketch_tree", metrics=metrics)
        assert results is not None
        assert metrics.hash_s > 0 and metrics.local_merge_s > 0
        # one rank: the reduced batch is the local stack
        local = idx.local_candidates(HashFamily.from_config(cfg).addresses([dataset[0][1]]))
        assert metrics.reduced.to_bytes() == local.to_bytes()
        line = metrics.to_line()
        assert line.startswith("# phases hash=")


    def test_malformed_exchange_payload_is_collective_error(self, rng, monkeypatch):
        cfg = LshConfig(hashes_per_table=2, num_tables=4, table_range=1 << 10, top_k=2, master_seed=5)
        vecs = random_sparse_vectors(rng, 30, 1 << 10, 10)
        idx = preprocess(DatasetPartition(0, list(enumerate(vecs))), cfg)
        batch = QueryBatch([(0, vecs[0]), (1, vecs[1])])

        def run(peers):
            # rank 0's own payload, then what two peers sent
            monkeypatch.setattr(query, "allgather", lambda tr, fp, batch_id: [fp, *peers(fp)])
            return query_batch(idx, batch, SimulatedCluster(1).transport(0), "sketch_tree")

        assert run(lambda fp: [fp, fp]) == run(lambda fp: [])
        probes = []
        for name in ("local_candidates", "exact_candidates"):
            monkeypatch.setattr(NodeIndex, name, lambda *a, name=name: probes.append(name))
        for peers in (
            lambda fp: [b"", fp],
            lambda fp: [fp[:7], fp],
            lambda fp: [fp, fp + b"\0"],
            lambda fp: [fp, fp + fp],  # a peer that still sends addresses
        ):
            with pytest.raises(CollectiveError, match="not 8 bytes"):
                run(peers)
        with pytest.raises(ConfigError, match=r"differs on \[2\]"):
            run(lambda fp: [fp, struct.pack("<Q", 98)])
        assert probes == []
        monkeypatch.undo()
        # an address out of the table range meets the probe's own check in every mode
        addresses = HashFamily.addresses

        def with_bad_row(family, vectors):
            out = addresses(family, vectors)
            out[-1, 2] = cfg.table_range
            return out

        monkeypatch.setattr(HashFamily, "addresses", with_bad_row)
        for mode in MODES:
            with pytest.raises(ConfigError, match="address out of table range"):
                query_batch(idx, batch, SimulatedCluster(1).transport(0), mode)

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    @pytest.mark.parametrize("m, odd", [(2, 1), (3, 0), (3, 2), (4, 1)])
    def test_divergent_batch_aborts_every_rank_before_probing(self, monkeypatch, backend, m, odd):
        inst, _cfg, indexes = tcp_worker.build_state(11, m)
        qid, v = inst.queries[3]
        short = SparseVector(v.indices[1:], v.dim)  # the same query id, one index fewer
        queries = list(inst.queries)
        batches = [QueryBatch(queries) for _ in range(m)]
        batches[odd] = QueryBatch(queries[:3] + [(qid, short)] + queries[4:])
        probes = []
        for name in ("local_candidates", "exact_candidates"):
            monkeypatch.setattr(NodeIndex, name, lambda *a, name=name: probes.append(name))

        def rank_main(tr):
            try:
                query_batch(indexes[tr.rank], batches[tr.rank], tr)
            except SketchLshError as exc:
                return exc

        if backend == "sim":
            errors = SimulatedCluster(m, default_timeout=1.0).run(rank_main)
        else:
            errors = run_tcp_threads(m, rank_main, io_timeout=2.0)
        assert all(isinstance(e, (CollectiveError, TransportError)) for e in errors)
        # a peer of a rank that aborted may time out instead
        assert isinstance(errors[odd], CollectiveError)
        if m == 2:
            assert all(isinstance(e, CollectiveError) for e in errors)
        assert probes == []


# values within each field's own bound, at and next to it, some of which
# break a bound on two fields (R·L, or B derived as 4·top_k) ...
CONFIG_WITHIN = {
    "hashes_per_table": [1, 2, 3],
    "num_tables": [1, 2, 3],
    "table_range": [2, 4, 2**31, 2**32, 2**33, 2**63],
    "sketch_rows": [1, 2],
    "sketch_cols": [0, 1, 3],
    "master_seed": [0, 1, 2**64 - 1],
    "top_k": [1, 2, 2**63, 2**64 - 1],
}
# ... and values just past it (K·L, W and B only past it, never built)
CONFIG_PAST = {
    "hashes_per_table": [0, 2**32 + 5],
    "num_tables": [0, MAX_TABLES + 1],
    "table_range": [1, 3, 2**64],
    "sketch_rows": [0, 2**32],
    "sketch_cols": [2**32],
    "master_seed": [-1, 2**64],
    "top_k": [0, 2**64],
}


@st.composite
def config_fields(draw):
    """LshConfig fields, each within its bound, or at most one past it."""
    fields = {name: draw(st.sampled_from(values)) for name, values in CONFIG_WITHIN.items()}
    past = draw(st.sampled_from([None, None, *CONFIG_PAST]))
    if past is not None:
        fields[past] = draw(st.sampled_from(CONFIG_PAST[past]))
    return fields


class TestEveryAcceptedConfig:
    """A config at or around each :class:`LshConfig` bound is either a
    :class:`ConfigError` or runs end to end: a 2-rank index that saves,
    loads and answers one batch in every mode. Only shapes that allocate a
    few MB are drawn; W, B or K·L of 2^32 or more are drawn only where
    they must be rejected."""

    VECTORS = random_sparse_vectors(np.random.default_rng(17), 12, 64, 4)

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("configs")

    @settings(max_examples=80, deadline=None, database=None)
    @given(fields=config_fields())
    @example(fields=dict(hashes_per_table=1, num_tables=1, table_range=2, sketch_rows=1,
                         sketch_cols=1, master_seed=0, top_k=1))
    @example(fields=dict(hashes_per_table=2, num_tables=2, table_range=2**31, sketch_rows=2,
                         sketch_cols=3, master_seed=2**64 - 1, top_k=2**64 - 1))
    @example(fields=dict(hashes_per_table=3, num_tables=2, table_range=2**32, sketch_rows=1,
                         sketch_cols=1, master_seed=0, top_k=2**63))
    def test_is_rejected_or_runs_end_to_end(self, workdir, fields):
        try:
            cfg = LshConfig(**fields)
        except ConfigError:
            return
        batch = QueryBatch([(0, self.VECTORS[3]), (1, self.VECTORS[8])])
        indexes = []
        for rank in range(2):
            part = DatasetPartition(rank, [(i, v) for i, v in enumerate(self.VECTORS) if i % 2 == rank])
            preprocess(part, cfg).save(workdir / f"rank{rank}.bin")
            indexes.append(NodeIndex.load(workdir / f"rank{rank}.bin", cfg))
        for mode in MODES:
            out = SimulatedCluster(2).run(lambda tr: query_batch(indexes[tr.rank], batch, tr, mode))[0]
            assert [r.query_id for r in out] == [0, 1]
            for r in out:
                assert len(r.hits) <= min(cfg.top_k, 12)  # a 1x1 sketch may count down to none
                assert all(1 <= c <= cfg.num_tables for _, c in r.hits)
            if mode == "exact":  # each query is an indexed vector: it collides in every table
                assert [r.hits[0][1] for r in out] == [cfg.num_tables] * 2


class TestResultFormat:
    def test_line_format(self):
        r = QueryResult(query_id=12, hits=((4, 9), (2, 3)))
        assert r.to_line() == "12\t4:9\t2:3"

    def test_batch_id_depends_on_every_id_and_their_order(self):
        v = SparseVector([1, 2], 8)
        ids = [5, 9, 2, (1 << 64) - 1, 0]
        fp = QueryBatch([(q, v) for q in ids]).fingerprint()
        assert fp == QueryBatch([(q, v) for q in ids]).fingerprint()
        variants = [ids[::-1], ids[1:], ids + [7]]
        variants += [ids[:i] + [ids[i] ^ 1] + ids[i + 1 :] for i in range(len(ids))]
        variants += [ids[:i] + [ids[i + 1], ids[i]] + ids[i + 2 :] for i in range(len(ids) - 1)]
        assert fp not in {QueryBatch([(q, v) for q in x]).fingerprint() for x in variants}
        # the vectors count too: ranks given other vectors under one id must not agree
        rows = [[1, 2, 5], [6], [0, 4], [2, 6, 7], [5]]

        def batch_id(rows, dim=8):
            return QueryBatch([(q, SparseVector(r, dim)) for q, r in zip(ids, rows)]).fingerprint()

        fp = batch_id(rows)
        changed = [[1, 2, 4]] + rows[1:]
        moved = [[1, 2], [5, 6]] + rows[2:]  # the indices back to back stay the same
        swapped = [rows[1], rows[0]] + rows[2:]
        assert fp not in {batch_id(x) for x in (changed, moved, swapped)}
        # hashing never reads dim, and neither does the batch id
        assert batch_id(rows, dim=1 << 20) == fp

    def test_batch_validation(self):
        with pytest.raises(ConfigError):
            QueryBatch([])
        with pytest.raises(ConfigError):
            QueryBatch([(0, SparseVector([], 4))])
        # a result writes its query id as a u64, and the batch id folds it as one
        v = SparseVector([1, 2], 8)
        for qid in (-1, 1 << 64):
            with pytest.raises(ConfigError, match=f"query id {qid} outside 0..2\\^64 - 1"):
                QueryBatch([(0, v), (qid, v)])
        for qid, _ in QueryBatch([(0, v), ((1 << 64) - 1, v)]).queries:
            assert struct.unpack_from("<Q", QueryResult(qid, ()).to_bytes())[0] == qid


class TestSAtK:
    def test_identical_hit_scores_one(self):
        v = SparseVector([1, 2, 3], 10)
        results = [QueryResult(0, ((5, 3),))]
        assert s_at_k(results, {0: v}, {5: v}, 1) == pytest.approx(1.0)

    def test_disjoint_hit_scores_zero(self):
        q = SparseVector([1, 2], 10)
        x = SparseVector([5, 6], 10)
        results = [QueryResult(0, ((5, 1),))]
        assert s_at_k(results, {0: q}, {5: x}, 1) == pytest.approx(0.0)

    def test_hand_computed_half(self):
        q = SparseVector([1, 2, 3, 4], 10)
        x = SparseVector([3, 4, 5, 6], 10)
        results = [QueryResult(0, ((8, 1),))]
        assert s_at_k(results, {0: q}, {8: x}, 1) == pytest.approx(0.5)

    def test_short_hit_lists_average_over_present(self):
        q = SparseVector([1, 2, 3, 4], 10)
        same = SparseVector([1, 2, 3, 4], 10)
        half = SparseVector([3, 4, 5, 6], 10)
        results = [QueryResult(0, ((1, 2), (2, 1)))]
        got = s_at_k(results, {0: q}, {1: same, 2: half}, 8)
        assert got == pytest.approx(0.75)

    def test_dangling_id_raises(self):
        q = SparseVector([1], 10)
        results = [QueryResult(0, ((99, 1),))]
        with pytest.raises(KeyError):
            s_at_k(results, {0: q}, {}, 1)
