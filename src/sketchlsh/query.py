"""The batch query pipeline: hash, gather, local merge, reduce, extract.

The pipeline runs the same way on every rank. Each rank hashes its
contiguous slice of the batch, the per-table addresses are allgathered so
every rank knows every query's buckets, each rank merges its own addressed
bucket sketches per query (one stack for the whole batch), and the per-node
merged sketches are reduced to rank 0, which extracts the top-k candidates
by estimated frequency.

In the sketch modes the whole path performs zero similarity computations;
an instrumentation counter guards that claim. The cosine metric below is
evaluation-only and is the counter's only client.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import ConfigError, SketchLshError, SparseVector
from .cluster import (
    ReduceStats,
    Transport,
    allgather,
    linear_reduce_sketches,
    tree_reduce_counts,
    tree_reduce_sketches,
)
from .hashing import HashFamily
from .index import NodeIndex
from .sketch import TopkapiSketch
from ._bits import mix64

MODES = ("sketch_tree", "sketch_linear", "exact")


class SimilarityCounter:
    """Counts similarity computations, to prove the query path performs none."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._count += n

    def reset(self) -> None:
        with self._lock:
            self._count = 0

    @property
    def count(self) -> int:
        return self._count


#: Global counter incremented by every similarity computation in this package.
distance_counter = SimilarityCounter()


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine of two binary vectors: |a & b| / sqrt(|a| * |b|).

    Evaluation-only; increments :data:`distance_counter`.
    """
    distance_counter.add()
    if a.nnz == 0 or b.nnz == 0:
        return 0.0
    inter = np.intersect1d(a.indices, b.indices, assume_unique=True).size
    return float(inter) / float(np.sqrt(a.nnz * b.nnz))


@dataclass(frozen=True)
class QueryBatch:
    """A non-empty batch of (query id, vector) pairs, all vectors valid."""

    queries: tuple[tuple[int, SparseVector], ...]

    def __init__(self, queries):
        pairs = tuple((int(q), v) for q, v in queries)
        if not pairs:
            raise ConfigError("query batch must be non-empty")
        for qid, v in pairs:
            if v.nnz == 0:
                raise ConfigError(f"query {qid} has no active indices")
        object.__setattr__(self, "queries", pairs)

    def __len__(self) -> int:
        return len(self.queries)

    def fingerprint(self) -> int:
        acc = np.uint64(0xBA7C4)
        for qid, _ in self.queries:
            acc = mix64(acc ^ np.uint64(qid & 0xFFFFFFFFFFFFFFFF))
        return int(acc)


@dataclass(frozen=True)
class QueryResult:
    """Ranked hits for one query: (vector id, estimated frequency), at most
    top_k of them, descending frequency with ties broken by ascending id."""

    query_id: int
    hits: tuple[tuple[int, int], ...]

    def to_line(self) -> str:
        cols = [str(self.query_id)] + [f"{i}:{c}" for i, c in self.hits]
        return "\t".join(cols)

    def to_bytes(self) -> bytes:
        parts = [struct.pack("<QI", self.query_id, len(self.hits))]
        parts += [struct.pack("<QQ", i, c) for i, c in self.hits]
        return b"".join(parts)


@dataclass
class QueryMetrics:
    """Per-phase wall times for one batch, plus reduction instrumentation."""

    hash_s: float = 0.0
    gather_s: float = 0.0
    local_merge_s: float = 0.0
    reduce_s: float = 0.0
    extract_s: float = 0.0
    reduce_stats: ReduceStats = field(default_factory=ReduceStats)
    capture_reduced: bool = False
    reduced_payloads: list[bytes] | None = None

    def to_line(self) -> str:
        return (
            f"# phases hash={self.hash_s:.6f}s gather={self.gather_s:.6f}s "
            f"local_merge={self.local_merge_s:.6f}s reduce={self.reduce_s:.6f}s "
            f"extract={self.extract_s:.6f}s"
        )


def top_k_extract(source, k: int) -> tuple[tuple[int, int], ...]:
    """Top k candidates by count from a sketch or an exact count map.

    Deterministic: descending count, ties by ascending id. Counts of zero
    never appear, so every reported frequency is at least 1. Returns fewer
    than k entries when fewer candidates survive; no padding.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if isinstance(source, TopkapiSketch):
        entries = source.heavy_hitters(threshold=0).entries
        return tuple(entries[:k])
    ranked = sorted(
        ((int(i), int(c)) for i, c in source.items() if c > 0),
        key=lambda ic: (-ic[1], ic[0]),
    )
    return tuple(ranked[:k])


def _slice_bounds(n: int, world_size: int, rank: int) -> tuple[int, int]:
    base, extra = divmod(n, world_size)
    lo = rank * base + min(rank, extra)
    return lo, lo + base + (1 if rank < extra else 0)


def query_batch(
    index: NodeIndex,
    batch: QueryBatch,
    transport: Transport,
    mode: str = "sketch_tree",
    metrics: QueryMetrics | None = None,
) -> list[QueryResult] | None:
    """Run one batch against the distributed index; results land on rank 0.

    All ranks must call collectively with the same batch and mode. Aborts
    before any hashing if the ranks' configurations disagree.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    metrics = metrics if metrics is not None else QueryMetrics()
    config = index.config
    # the batch id must agree across ranks even when configs do not, so the
    # config skew check below can run before anything else desynchronizes
    batch_id = batch.fingerprint()

    # Config skew check, before any hashing happens.
    fps = allgather(
        transport, struct.pack("<Q", config.fingerprint()), batch_id=batch_id
    )
    fingerprints = [struct.unpack("<Q", p)[0] for p in fps]
    if len(set(fingerprints)) != 1:
        bad = [r for r, fp in enumerate(fingerprints) if fp != fingerprints[0]]
        raise ConfigError(f"configuration mismatch across ranks (differs on {bad})")

    family = HashFamily.from_config(config)
    n = len(batch)
    lo, hi = _slice_bounds(n, transport.world_size, transport.rank)

    t0 = time.perf_counter()
    if hi > lo:
        my_addrs = np.vstack(
            [family.addresses(v) for _, v in batch.queries[lo:hi]]
        ).astype("<u8")
    else:
        my_addrs = np.empty((0, config.num_tables), dtype="<u8")
    payload = struct.pack("<I", my_addrs.shape[0]) + my_addrs.tobytes()
    metrics.hash_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    gathered = allgather(transport, payload, batch_id=batch_id)
    rows = []
    for blob in gathered:
        (cnt,) = struct.unpack_from("<I", blob, 0)
        rows.append(
            np.frombuffer(blob, dtype="<u8", offset=4).reshape(cnt, config.num_tables)
        )
    all_addrs = np.vstack(rows)
    if all_addrs.shape[0] != n:
        raise SketchLshError("gathered address count does not match batch size")
    metrics.gather_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    if mode == "exact":
        local_counts = [index.exact_candidates(all_addrs[q]) for q in range(n)]
    else:
        local_sketches = index.local_candidates(all_addrs)
    metrics.local_merge_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    if mode == "sketch_tree":
        reduced = tree_reduce_sketches(
            transport, local_sketches, batch_id=batch_id, stats=metrics.reduce_stats
        )
    elif mode == "sketch_linear":
        reduced = linear_reduce_sketches(
            transport, local_sketches, batch_id=batch_id, stats=metrics.reduce_stats
        )
    else:
        reduced = tree_reduce_counts(
            transport, local_counts, batch_id=batch_id, stats=metrics.reduce_stats
        )
    metrics.reduce_s += time.perf_counter() - t0

    if transport.rank != 0:
        return None

    t0 = time.perf_counter()
    assert reduced is not None
    if metrics.capture_reduced:
        if mode == "exact":
            metrics.reduced_payloads = [
                b"".join(
                    struct.pack("<QQ", i, c) for i, c in sorted(m.items())
                )
                for m in reduced
            ]
        else:
            metrics.reduced_payloads = [s.to_bytes() for s in reduced]
    results = [
        QueryResult(query_id=batch.queries[q][0], hits=top_k_extract(reduced[q], config.top_k))
        for q in range(n)
    ]
    metrics.extract_s += time.perf_counter() - t0
    return results


def s_at_k(
    results: Sequence[QueryResult],
    queries: Mapping[int, SparseVector],
    dataset: Mapping[int, SparseVector],
    k: int,
) -> float:
    """Mean cosine similarity of each query to its top-k reported hits.

    Queries with fewer than k hits average over the hits present; queries
    with no hits are skipped. Unknown hit ids are an error (dangling id).
    """
    per_query: list[float] = []
    for res in results:
        q = queries[res.query_id]
        hits = res.hits[:k]
        if not hits:
            continue
        sims = []
        for vid, _ in hits:
            if vid not in dataset:
                raise KeyError(f"result references unknown vector id {vid}")
            sims.append(cosine_similarity(q, dataset[vid]))
        per_query.append(float(np.mean(sims)))
    return float(np.mean(per_query)) if per_query else 0.0
