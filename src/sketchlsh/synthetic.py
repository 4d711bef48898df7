"""Synthetic datasets for benchmarks and validation.

The planted instance is the workhorse: a sea of random sparse vectors
(pairwise near-disjoint) plus, for each query, a handful of planted
neighbors obtained by swapping a few indices of the query, giving an exact,
construction-time Jaccard similarity of (nnz - swaps) / (nnz + swaps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DatasetPartition, SparseVector

QUERY_ID_BASE = 1 << 40  # keeps query ids disjoint from dataset ids


def random_sparse_vector(rng: np.random.Generator, dim: int, nnz: int) -> SparseVector:
    idx = np.sort(rng.choice(dim, size=nnz, replace=False).astype(np.uint64))
    idx.setflags(write=False)  # the vector then holds it without a view
    return SparseVector(indices=idx, dim=dim)


def random_sparse_vectors(
    rng: np.random.Generator, count: int, dim: int, nnz: int
) -> list[SparseVector]:
    return [random_sparse_vector(rng, dim, nnz) for _ in range(count)]


def vector_with_swaps(
    rng: np.random.Generator, base: SparseVector, swaps: int
) -> SparseVector:
    """Copy of ``base`` with ``swaps`` indices removed and ``swaps`` fresh ones
    added; exact Jaccard to the base is (nnz - swaps) / (nnz + swaps).

    Raises :class:`ConfigError` unless 0 <= swaps < nnz and swaps <= dim - nnz
    (enough free indices to draw from), before any draw."""
    _check_swaps(swaps, base.nnz, base.dim)
    keep = np.sort(rng.choice(base.nnz, size=base.nnz - swaps, replace=False))
    kept = base.indices[keep]
    existing = set(base.indices.tolist())
    fresh: set[int] = set()
    while len(fresh) < swaps:
        cand = int(rng.integers(0, base.dim))
        if cand not in existing and cand not in fresh:
            fresh.add(cand)
    idx = np.sort(np.concatenate([kept, np.array(sorted(fresh), dtype=np.uint64)]))
    idx.setflags(write=False)
    return SparseVector(indices=idx, dim=base.dim)


def _check_swaps(swaps: int, nnz: int, dim: int) -> None:
    if not 0 <= swaps < nnz:
        raise ConfigError(f"swaps {swaps} must be in 0..nnz - 1 (nnz {nnz})")
    if swaps > dim - nnz:
        raise ConfigError(
            f"swaps {swaps} exceeds the {dim - nnz} indices free of a vector's {nnz} in dim {dim}"
        )


@dataclass(frozen=True)
class PlantedInstance:
    """Background vectors plus per-query planted near neighbors."""

    dataset: tuple[tuple[int, SparseVector], ...]
    queries: tuple[tuple[int, SparseVector], ...]
    planted: dict[int, frozenset[int]]  # query id -> planted vector ids
    plant_jaccard: float


def planted_instance(
    n_background: int,
    n_queries: int,
    per_query: int,
    dim: int = 1 << 16,
    nnz: int = 40,
    swaps: int = 2,
    seed: int = 0,
) -> PlantedInstance:
    """Raises :class:`ConfigError` unless the counts are 0 or more,
    1 <= nnz <= dim <= 2^63 - 1 (numpy's ``choice`` draws from an int64
    range) and the swaps satisfy :func:`vector_with_swaps`, before any draw."""
    if min(n_background, n_queries, per_query) < 0:
        raise ConfigError(
            f"n_background {n_background}, n_queries {n_queries} and per_query {per_query} "
            "must be 0 or more"
        )
    if not 1 <= nnz <= dim:
        raise ConfigError(f"nnz {nnz} must be in 1..dim (dim {dim})")
    if dim > 2**63 - 1:
        raise ConfigError(f"dim {dim} exceeds 2^63 - 1, the largest range numpy's choice draws from")
    _check_swaps(swaps, nnz, dim)
    rng = np.random.default_rng(seed)
    data: list[tuple[int, SparseVector]] = [
        (i, random_sparse_vector(rng, dim, nnz)) for i in range(n_background)
    ]
    queries: list[tuple[int, SparseVector]] = []
    planted: dict[int, frozenset[int]] = {}
    next_id = n_background
    for qi in range(n_queries):
        qid = QUERY_ID_BASE + qi
        qvec = random_sparse_vector(rng, dim, nnz)
        queries.append((qid, qvec))
        ids = []
        for _ in range(per_query):
            data.append((next_id, vector_with_swaps(rng, qvec, swaps)))
            ids.append(next_id)
            next_id += 1
        planted[qid] = frozenset(ids)
    return PlantedInstance(
        dataset=tuple(data),
        queries=tuple(queries),
        planted=planted,
        plant_jaccard=(nnz - swaps) / (nnz + swaps),
    )


def round_robin_partitions(dataset, world_size: int):
    """Split (id, vector) pairs across ranks the way the file partitioner does."""
    return [
        DatasetPartition(node_id=r, vectors=dataset[r::world_size])
        for r in range(world_size)
    ]


# -- streams for sketch validation ---------------------------------------------------


def zipf_stream(
    rng: np.random.Generator, length: int, n_items: int, a: float = 1.3
) -> np.ndarray:
    """Zipf-distributed id stream clipped to [0, n_items)."""
    raw = rng.zipf(a, size=length)
    return ((raw - 1) % n_items).astype(np.uint64)


def adversarial_stream(rng: np.random.Generator, length: int, kind: int) -> np.ndarray:
    """Order-sensitive stress streams for the majority-counter rule."""
    kind = kind % 4
    if kind == 0:
        # alternating pair: forces constant increment/decrement churn
        return np.tile(np.array([7, 11], dtype=np.uint64), length // 2 + 1)[:length]
    if kind == 1:
        # heavy item drowned late by a flood of distinct ids
        half = length // 2
        heavy = np.full(half, 3, dtype=np.uint64)
        flood = np.arange(100, 100 + (length - half), dtype=np.uint64)
        return np.concatenate([heavy, flood])
    if kind == 2:
        # all-distinct: every cell ends at count <= 1
        return np.arange(length, dtype=np.uint64)
    # two-phase majority handover
    half = length // 2
    return np.concatenate(
        [
            np.full(half, 5, dtype=np.uint64),
            np.full(length - half, 6, dtype=np.uint64),
        ]
    )
