"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments, the seed included. The
package under test only receives what these functions produce: vectors,
query batches, and the svmlight text written from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sketchlsh.core import SparseVector
from sketchlsh.dataio import format_record
from sketchlsh.synthetic import (
    QUERY_ID_BASE,
    planted_instance,
    random_sparse_vector,
    vector_with_swaps,
)

DIM = 1 << 16
NNZ = 40
SWAPS = 2
PER_QUERY = 8

Pairs = tuple[tuple[int, SparseVector], ...]


@dataclass(frozen=True)
class WorkloadData:
    """Vectors with ids 0..n-1 in order, query batches, and for each query
    the ids a perfect answer would rank first (its plants or its group)."""

    dataset: Pairs
    batches: tuple[Pairs, ...]
    relevant: dict[int, frozenset[int]]

    @property
    def queries(self) -> Pairs:
        return tuple(q for batch in self.batches for q in batch)


def _batched(queries: Pairs, size: int) -> tuple[Pairs, ...]:
    return tuple(tuple(queries[i : i + size]) for i in range(0, len(queries), size))


def planted_data(seed: int, n_background: int, n_queries: int, batch_size: int) -> WorkloadData:
    """``synthetic.planted_instance``: near-disjoint background vectors plus
    PER_QUERY near duplicates (SWAPS swaps) planted for every query."""
    inst = planted_instance(
        n_background, n_queries, PER_QUERY, dim=DIM, nnz=NNZ, swaps=SWAPS, seed=seed
    )
    return WorkloadData(inst.dataset, _batched(inst.queries, batch_size), inst.planted)


def zipf_group_sizes(n: int, groups: int, a: float) -> np.ndarray:
    """Group sizes proportional to rank**-a, each at least 1, summing to n.

    Deterministic (largest remainder rounding), so every seed has the same
    skew and only the vectors differ.
    """
    weights = np.arange(1, groups + 1, dtype=np.float64) ** -a
    raw = weights / weights.sum() * (n - groups)
    sizes = 1 + np.floor(raw).astype(np.int64)
    short = n - int(sizes.sum())
    by_remainder = np.argsort(-(raw - np.floor(raw)), kind="stable")
    sizes[by_remainder[:short]] += 1
    return sizes


def skewed_data(
    seed: int, n: int, groups: int, a: float, n_batches: int, batch_size: int
) -> WorkloadData:
    """Near duplicates of ``groups`` random prototypes, group sizes Zipf(a).

    Ids are a random permutation of the generation order, so every group is
    spread over all partitions. Each batch samples groups systematically in
    proportion to group size (one random offset, ``batch_size`` evenly
    spaced points on the cumulative size distribution), which keeps the
    group mix of every batch close to the data's own.
    """
    rng = np.random.default_rng(seed)
    sizes = zipf_group_sizes(n, groups, a)
    protos = [random_sparse_vector(rng, DIM, NNZ) for _ in range(groups)]
    group_of = np.repeat(np.arange(groups), sizes)
    vectors = [vector_with_swaps(rng, protos[g], SWAPS) for g in group_of]
    order = rng.permutation(n)
    dataset = tuple((vid, vectors[j]) for vid, j in enumerate(order.tolist()))
    id_group = group_of[order]
    members = [frozenset(np.flatnonzero(id_group == g).tolist()) for g in range(groups)]

    cumulative = np.cumsum(sizes) / n
    queries: list[tuple[int, SparseVector]] = []
    relevant: dict[int, frozenset[int]] = {}
    for _ in range(n_batches):
        points = (np.arange(batch_size) + rng.random()) / batch_size
        for g in np.searchsorted(cumulative, points, side="right").tolist():
            qid = QUERY_ID_BASE + len(queries)
            queries.append((qid, vector_with_swaps(rng, protos[g], SWAPS)))
            relevant[qid] = members[g]
    return WorkloadData(dataset, _batched(tuple(queries), batch_size), relevant)


def write_svmlight(path: Path, dataset: Pairs) -> None:
    """One ``dataio.format_record`` line per vector; line i must hold id i,
    because the partitioner numbers records by line."""
    lines = []
    for line_no, (vid, vec) in enumerate(dataset):
        if vid != line_no:
            raise ValueError(f"vector id {vid} on line {line_no}")
        lines.append(format_record(vec))
    Path(path).write_text("\n".join(lines) + "\n")
