"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. The planted-instance criteria (4 and 5) share one session fixture;
expect the whole module to take a few minutes, dominated by that build.
"""

from __future__ import annotations

import functools
import math
import multiprocessing

import numpy as np
import pytest

from sketchlsh.cluster import ReduceStats, SimulatedCluster, linear_reduce_sketches, tree_reduce_sketches
from sketchlsh.core import LshConfig
from sketchlsh.hashing import minhash_many
from sketchlsh.index import preprocess
from sketchlsh.params import LshSensitivity, recommend_params, snr_simulation
from sketchlsh.query import QueryBatch, distance_counter, query_batch
from sketchlsh.sketch import TopkapiSketch, row_seeds_from_master
from sketchlsh.synthetic import (
    adversarial_stream,
    planted_instance,
    random_sparse_vectors,
    round_robin_partitions,
    zipf_stream,
)
from sketchlsh._bits import seed_stream

from oracles import exact_jaccard, free_ports, pair_with_jaccard
import tcp_worker


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {title}", flush=True)
                raise
            print(f"\nACCEPTANCE {number} PASS: {title}", flush=True)

        return wrapper

    return decorate


# --------------------------------------------------------------------------------
# criterion 1


@criterion(1, "minhash collision rate tracks exact Jaccard within 0.02")
def test_c1_minhash_matches_jaccard():
    rng = np.random.default_rng(101)
    seeds = seed_stream(0xACC1, 10_000, tag=1)
    worst = 0.0
    for i in range(50):
        target = 0.1 + 0.8 * i / 49
        shared = 60
        extra = max(1, round(shared * (1 - target) / target))
        va, vb = pair_with_jaccard(rng, shared, extra // 2, extra - extra // 2)
        j = exact_jaccard(va, vb)
        assert 0.1 <= j <= 0.9  # construction sanity
        rate = float(np.mean(minhash_many(va, seeds) == minhash_many(vb, seeds)))
        worst = max(worst, abs(rate - j))
        assert abs(rate - j) <= 0.02, f"pair {i}: J={j:.4f} rate={rate:.4f}"
    print(f"  worst |rate - J| over 50 pairs: {worst:.4f}")


# --------------------------------------------------------------------------------
# criterion 2


def _check_cells_vectorized(sketch: TopkapiSketch, stream: np.ndarray) -> None:
    """Exact per-cell oracle: majority retention and two-sided count bounds."""
    rows, cols = sketch.rows, sketch.cols
    bins = sketch._row_bins(stream)
    n = stream.size
    id_bits = np.uint64(40)
    row_idx = np.repeat(np.arange(rows, dtype=np.uint64), n)
    cellkey = row_idx * np.uint64(cols) + bins.T.ravel().astype(np.uint64)
    keys = (cellkey << id_bits) | np.tile(stream, rows)
    uniq, counts = np.unique(keys, return_counts=True)
    cells = (uniq >> id_bits).astype(np.int64)
    ids = (uniq & ((np.uint64(1) << id_bits) - np.uint64(1))).astype(np.uint64)

    starts = np.concatenate(([0], np.flatnonzero(cells[1:] != cells[:-1]) + 1))
    seg_cells = cells[starts]
    totals = np.add.reduceat(counts, starts)
    top_counts = np.maximum.reduceat(counts, starts)
    # last element per segment after a (cell, count) sort is one argmax
    order = np.lexsort((counts, cells))
    ends = np.concatenate((starts[1:], [len(cells)])) - 1
    top_ids = ids[order[ends]]

    r = seg_cells // cols
    b = seg_cells % cols
    stored_ids = sketch.ids[r, b]
    stored_counts = sketch.counts[r, b].astype(np.int64)

    strict = 2 * top_counts > totals
    assert np.array_equal(stored_ids[strict], top_ids[strict].astype(np.uint64)), (
        "a strict per-cell majority was not retained"
    )

    positive = stored_counts > 0
    lookup = (seg_cells.astype(np.uint64) << id_bits) | stored_ids
    pos = np.searchsorted(uniq, lookup)
    found = (pos < len(uniq)) & (uniq[np.minimum(pos, len(uniq) - 1)] == lookup)
    assert np.all(found[positive]), "a stored id never arrived in its cell"
    true_freq = np.where(found, counts[np.minimum(pos, len(uniq) - 1)], 0)
    assert np.all(stored_counts[positive] <= true_freq[positive]), (
        "stored count exceeds the true frequency"
    )
    others = totals - true_freq
    assert np.all((true_freq - stored_counts)[positive] <= others[positive]), (
        "undercount exceeds the other arrivals to the cell"
    )


@criterion(2, "sketch counters obey the exact per-cell oracle on 1000 streams")
def test_c2_sketch_against_oracle():
    rng = np.random.default_rng(202)
    length = 10_000
    shapes = [(4, 32), (4, 16), (2, 64)]
    for trial in range(1000):
        if trial % 2 == 0:
            stream = zipf_stream(rng, length, 4000, a=1.1 + 0.8 * (trial % 5) / 5)
        else:
            stream = adversarial_stream(rng, length, trial // 2)
            if trial % 8 == 5:
                stream = rng.permutation(stream)
        rows, cols = shapes[trial % len(shapes)]
        seeds = row_seeds_from_master(trial, rows)
        s = TopkapiSketch(rows, cols, seeds)
        s.insert_many(stream)
        _check_cells_vectorized(s, stream)

        # merge laws, bit for bit, on a split of the same stream
        half = length // 2
        a = TopkapiSketch(rows, cols, seeds)
        b = TopkapiSketch(rows, cols, seeds)
        a.insert_many(stream[:half])
        b.insert_many(stream[half:])
        empty = TopkapiSketch(rows, cols, seeds)
        assert a.merge(empty) == a and empty.merge(a) == a
        assert a.merge(b) == b.merge(a)


# --------------------------------------------------------------------------------
# criterion 3


@criterion(3, "exact-mode results bit-identical for m in {1,2,4,8}")
def test_c3_partition_invariance():
    rng = np.random.default_rng(303)
    vecs = random_sparse_vectors(rng, 10_000, 1 << 14, 28)
    dataset = [(i, v) for i, v in enumerate(vecs)]
    queries = [(10_000_000 + i, vecs[i]) for i in range(150)]
    queries += [(20_000_000 + i, v) for i, v in enumerate(random_sparse_vectors(rng, 50, 1 << 14, 28))]
    cfg = LshConfig(
        hashes_per_table=4, num_tables=16, table_range=1 << 18, top_k=8, master_seed=909
    )
    batch = QueryBatch(queries)
    blobs = {}
    for m in (1, 2, 4, 8):
        parts = round_robin_partitions(dataset, m)
        indexes = [preprocess(p, cfg) for p in parts]
        outs = SimulatedCluster(m).run(
            lambda tr: query_batch(indexes[tr.rank], batch, tr, "exact")
        )
        blobs[m] = b"".join(r.to_bytes() for r in outs[0])
    assert blobs[1] == blobs[2] == blobs[4] == blobs[8]


# --------------------------------------------------------------------------------
# criteria 4 and 5 share the planted instance


PLANT_QUERIES = 500
PLANT_PER_QUERY = 8


@pytest.fixture(scope="module")
def planted_run():
    inst = planted_instance(
        n_background=100_000,
        n_queries=PLANT_QUERIES,
        per_query=PLANT_PER_QUERY,
        dim=1 << 16,
        nnz=40,
        swaps=2,
        seed=404,
    )
    n_total = len(inst.dataset)
    # declared sensitivity: near radius at Jaccard 0.8 (planting is at ~0.905,
    # comfortably inside), background far beyond at ~0.001
    sens = LshSensitivity(r=0.2, c=4.0, p1=0.8, p2=0.2)
    rec = recommend_params(sens, n_total, k_bound=PLANT_PER_QUERY)
    cfg = LshConfig(
        hashes_per_table=rec.k_rec,
        num_tables=rec.l_rec,
        table_range=1 << 20,
        top_k=PLANT_PER_QUERY,
        master_seed=1717,
        sketch_rows=rec.sketch_rows,
        sketch_cols=rec.sketch_cols,
    )
    parts = round_robin_partitions(list(inst.dataset), 2)
    indexes = [preprocess(p, cfg) for p in parts]
    batch = QueryBatch(inst.queries)

    distance_counter.reset()
    tree = SimulatedCluster(2).run(
        lambda tr: query_batch(indexes[tr.rank], batch, tr, "sketch_tree")
    )[0]
    distance_ops = distance_counter.count
    exact = SimulatedCluster(2).run(
        lambda tr: query_batch(indexes[tr.rank], batch, tr, "exact")
    )[0]
    return inst, rec, tree, exact, distance_ops


@criterion(4, "recommended parameters retrieve all planted neighbors, zero distances")
def test_c4_planted_retrieval(planted_run):
    inst, rec, tree, _exact, distance_ops = planted_run
    print(f"  recommended K={rec.k_rec} L={rec.l_rec} for n={rec.n}")
    assert distance_ops == 0, "the sketch query path computed a similarity"
    full = 0
    for res in tree:
        want = inst.planted[res.query_id]
        got = {i for i, _ in res.hits}
        if want <= got:
            full += 1
    rate = full / len(tree)
    print(f"  all-{PLANT_PER_QUERY}-in-top-{PLANT_PER_QUERY} rate: {rate:.4f}")
    assert rate >= 0.90


@criterion(5, "sketch aggregation agrees with exact aggregation on 95% of queries")
def test_c5_sketch_vs_exact(planted_run):
    _inst, _rec, tree, exact, _ops = planted_run
    agree = sum(
        {i for i, _ in t.hits} == {i for i, _ in e.hits} for t, e in zip(tree, exact)
    )
    rate = agree / len(tree)
    print(f"  identity-set agreement: {rate:.4f}")
    assert rate >= 0.95


# --------------------------------------------------------------------------------
# criterion 6


@criterion(6, "merge rounds per rank meet the schedule bounds (tree vs linear)")
def test_c6_reduction_complexity():
    rng = np.random.default_rng(606)
    seeds = row_seeds_from_master(66, 2)
    for m in (2, 3, 4, 5, 8, 16):
        base = []
        for _ in range(m):
            s = TopkapiSketch(2, 8, seeds)
            s.insert_many(rng.integers(0, 30, size=100, dtype=np.uint64))
            base.append(s)
        tree_stats = [ReduceStats() for _ in range(m)]
        SimulatedCluster(m).run(
            lambda tr: tree_reduce_sketches(tr, [base[tr.rank]], stats=tree_stats[tr.rank])
        )
        bound = math.ceil(math.log2(m))
        assert max(s.merge_rounds for s in tree_stats) == bound, f"tree bound at m={m}"
        linear_stats = [ReduceStats() for _ in range(m)]
        SimulatedCluster(m).run(
            lambda tr: linear_reduce_sketches(tr, [base[tr.rank]], stats=linear_stats[tr.rank])
        )
        assert linear_stats[0].merge_rounds == m - 1, f"linear count at m={m}"
        assert max((s.merge_rounds for s in linear_stats[1:]), default=0) == 0


# --------------------------------------------------------------------------------
# criterion 7


@criterion(7, "simulated and TCP backends produce bit-identical sketches and results")
def test_c7_backend_equivalence():
    world = 4
    seed = 70707
    mode = "sketch_tree"

    # reference run over the simulated backend
    inst, _cfg, indexes = tcp_worker.build_state(seed, world)
    from sketchlsh.query import QueryMetrics

    batch = QueryBatch(inst.queries)
    sim_metrics = [QueryMetrics(capture_reduced=True) for _ in range(world)]
    sim_out = SimulatedCluster(world).run(
        lambda tr: query_batch(
            indexes[tr.rank], batch, tr, mode, metrics=sim_metrics[tr.rank]
        )
    )
    sim_results = [r.to_bytes() for r in sim_out[0]]
    sim_reduced = sim_metrics[0].reduced_payloads

    # 4 OS processes over localhost TCP
    ctx = multiprocessing.get_context("spawn")
    members = [("127.0.0.1", p) for p in free_ports(world)]
    queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=tcp_worker.tcp_rank_main,
            args=(rank, members, seed, world, mode, queue),
        )
        for rank in range(world)
    ]
    for p in procs:
        p.start()
    statuses = [queue.get(timeout=120) for _ in range(world)]
    for p in procs:
        p.join(timeout=30)
    failures = [s for s in statuses if s[0] != "ok"]
    assert not failures, f"tcp ranks failed: {failures}"
    tcp_results, tcp_reduced = next(
        (s[2], s[3]) for s in statuses if s[1] == 0
    )
    assert tcp_results == sim_results
    assert tcp_reduced == sim_reduced


# --------------------------------------------------------------------------------
# criterion 8


@criterion(8, "signal/noise simulation validates the concentration argument")
def test_c8_snr_simulation():
    sens = LshSensitivity(r=0.1, c=2.0, p1=0.95, p2=0.3)
    rec = recommend_params(sens, 10_000)
    report = snr_simulation(
        sens,
        n=10_000,
        k_hashes=rec.k_rec,
        num_tables=rec.l_rec,
        trials=10_000,
        planted=1,
        seed=808,
    )
    print(
        f"  K={rec.k_rec} L={rec.l_rec} signal_mean={report.signal_mean:.4f} "
        f"expected={report.expected_signal_mean:.4f} separation={report.separation_rate:.4f}"
    )
    assert abs(report.signal_mean - report.expected_signal_mean) <= 3 * report.signal_se
    assert report.separation_rate >= 0.90


# --------------------------------------------------------------------------------
# criterion 9: desk-scale statement, trend report only


@criterion(9, "tera-scale results are out of desk scope; trends reported, not gated")
def test_c9_desk_scale_trend_note(tmp_path, capsys):
    from sketchlsh.cli import main

    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench", "--n", "2000", "--queries", "40", "--per-query", "4",
            "--dim", "16384", "--nnz", "24", "--m-list", "1,2,4",
            "--modes", "sketch_tree,sketch_linear,exact", "--tables", "12",
            "--out", str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "# indexing time trend" in text
    assert "# tree-mode query time" in text
    print(
        "  full-scale corpus indexing times, absolute retrieval quality on the\n"
        "  published datasets, and cross-framework speedups are not reproducible\n"
        "  at desk scale; the bench command reports their shapes as trends only"
    )
