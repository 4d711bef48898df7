"""The sketch's guarantee end to end: every cell of rank 0's reduced stack
keeps the majority-vote bounds against exact mode's counts for the same
batch, whatever the config, the rank count, the reduce and the skew of the
data, with heavy buckets and without."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sketchlsh.cluster import SimulatedCluster
from sketchlsh.core import LshConfig
from sketchlsh.index import preprocess
from sketchlsh.query import QueryBatch, QueryMetrics, query_batch
from sketchlsh.sketch import row_seeds_from_master
from sketchlsh.synthetic import (
    planted_instance,
    random_sparse_vectors,
    round_robin_partitions,
    vector_with_swaps,
)

from oracles import cell_bounds

DIM, NNZ, QUERIES = 1 << 12, 20, 6


def zipf_grouped(rng, n: int, groups: int, a: float):
    """Near duplicates of ``groups`` random prototypes under ids 0..n-1 in a
    random order, group g of about (n - groups)·g^-a / Σ_h h^-a + 1 of them;
    and queries near the prototypes."""
    weights = np.arange(1, groups + 1, dtype=np.float64) ** -a
    sizes = 1 + np.floor(weights / weights.sum() * (n - groups)).astype(np.int64)
    protos = random_sparse_vectors(rng, groups, DIM, NNZ)
    order = rng.permutation(np.repeat(np.arange(groups), sizes)).tolist()
    dataset = [(i, vector_with_swaps(rng, protos[g], 2)) for i, g in enumerate(order)]
    picks = rng.integers(0, groups, QUERIES).tolist()
    return dataset, [(q, vector_with_swaps(rng, protos[g], 2)) for q, g in enumerate(picks)]


def reduced(indexes, batch: QueryBatch, mode: str):
    """Rank 0's reduced batch of one collective query in ``mode``."""
    metrics = [QueryMetrics() for _ in indexes]
    SimulatedCluster(len(indexes)).run(
        lambda tr: query_batch(indexes[tr.rank], batch, tr, mode, metrics[tr.rank])
    )
    return metrics[0].reduced


@settings(max_examples=100, deadline=None, database=None)
@given(
    zipf=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    heavy=st.booleans(),
    shape=st.tuples(st.integers(1, 4), st.integers(1, 16)),
    tables=st.tuples(st.integers(1, 3), st.integers(1, 6)),
    m=st.integers(1, 4),
    mode=st.sampled_from(["sketch_tree", "sketch_linear"]),
)
def test_every_reduced_cell_keeps_the_majority_bounds(zipf, seed, heavy, shape, tables, m, mode):
    rng = np.random.default_rng(seed)
    if zipf:
        dataset, queries = zipf_grouped(rng, 400, 20, 1.1)
    else:
        inst = planted_instance(300, QUERIES, 5, dim=DIM, nnz=NNZ, swaps=2, seed=seed)
        dataset, queries = list(inst.dataset), list(inst.queries)
    base = dict(
        hashes_per_table=tables[0], num_tables=tables[1], table_range=1 << 10, master_seed=seed
    )
    parts = round_robin_partitions(dataset, m)
    # buckets do not depend on the sketch's shape: put W·B below the largest, or at it or above
    probe = LshConfig(**base, sketch_rows=1, sketch_cols=1)
    largest = max(int(np.diff(preprocess(p, probe).offsets).max()) for p in parts)
    rows, cols = shape
    if heavy:
        assume(largest > 1)
        rows = min(rows, largest - 1)
        cols = min(cols, (largest - 1) // rows)
    else:
        cols = max(cols, -(-largest // rows))
    cfg = LshConfig(**base, sketch_rows=rows, sketch_cols=cols)
    indexes = [preprocess(p, cfg) for p in parts]
    assert any(index.heavy_pos.size for index in indexes) == heavy
    batch = QueryBatch(queries)
    exact = reduced(indexes, batch, "exact")
    cell_bounds(reduced(indexes, batch, mode), exact, row_seeds_from_master(seed, rows))
