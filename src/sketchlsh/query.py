"""The batch query pipeline: hash, gather, local merge, reduce, extract.

The pipeline runs the same way on every rank. Each rank hashes its
contiguous slice of the batch, and one allgather per batch gives every rank
each rank's config and mode fingerprint and per-table addresses: every rank
checks that both agree and learns every query's buckets. Each rank then
merges its own addressed bucket sketches per query (one stack for the whole
batch), and the per-node stacks are reduced to rank 0, which ranks every
query's top k in one pass.

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

from .core import NULL_ID, ConfigError, LshConfig, SparseVector
from .cluster import (
    CollectiveError,
    ExactCounts,
    ReduceStats,
    Transport,
    allgather,
    linear_reduce_sketches,
    tree_reduce_counts,
    tree_reduce_sketches,
)
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
    """A non-empty batch of (query id, vector) pairs, all vectors valid and
    every query id in 0..2^64 - 1 (a result writes it as a u64)."""

    queries: tuple[tuple[int, SparseVector], ...]

    def __init__(self, queries):
        pairs = tuple((int(q), v) for q, v in queries)
        if not pairs:
            raise ConfigError("query batch must be non-empty")
        for qid, v in pairs:
            if not 0 <= qid <= 0xFFFFFFFFFFFFFFFF:
                raise ConfigError(f"query id {qid} outside 0..2^64 - 1")
            if v.nnz == 0:
                raise ConfigError(f"query {qid} has no active indices")
        object.__setattr__(self, "queries", pairs)

    def __len__(self) -> int:
        return len(self.queries)

    def fingerprint(self) -> int:
        """The batch id: each query id mixed with its position, folded."""
        ids = np.array([qid for qid, _ in self.queries], dtype=np.uint64)
        positions = mix64(np.arange(ids.size, dtype=np.uint64) ^ np.uint64(0xBA7C4))
        return int(mix64(np.bitwise_xor.reduce(mix64(ids ^ positions))))


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
    # the batch as the reduce left it, not copied: on rank 0 the (n, W, B)
    # sketch stack or the ExactCounts, on every other rank None
    reduced: TopkapiSketch | ExactCounts | None = None

    def to_line(self) -> str:
        return (
            f"# phases hash={self.hash_s:.6f}s gather={self.gather_s:.6f}s "
            f"local_merge={self.local_merge_s:.6f}s reduce={self.reduce_s:.6f}s "
            f"extract={self.extract_s:.6f}s"
        )


def top_k_extract(reduced, k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Top k candidates by count for every query of a reduced batch.

    ``reduced`` is an :class:`ExactCounts` or an (n, W, B) sketch stack, in
    which each live cell (a real id, a counter above 0) counts its id at the
    largest counter in the member, as :meth:`TopkapiSketch.heavy_hitters`
    does. One ranking pass gives one hit tuple per query: descending count,
    ties by ascending id, every count at least 1, no padding past a query's
    candidates. ``k`` may be any positive int (a config's ``top_k`` is any u64).
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if not isinstance(reduced, ExactCounts):  # a sketch stack
        live = (reduced.ids != np.uint64(NULL_ID)) & (reduced.counts > 0)
        members, ids, counts = np.nonzero(live)[0], reduced.ids[live], reduced.counts[live]
        reduced = ExactCounts.summed(len(reduced), members, ids, counts, np.maximum)
    # a k past every candidate ranks them all, and fits the int64 arithmetic below
    k = min(k, reduced.ids.size)
    starts, lengths = reduced.indptr[:-1], np.diff(reduced.indptr)
    # grouped by query; ~count (2^64 - 1 - count) ranks larger counts first
    order = np.lexsort((reduced.ids, ~reduced.counts, reduced.queries()))
    keep = order[np.arange(order.size) - np.repeat(starts, lengths) < k]
    hits = list(zip(reduced.ids[keep].tolist(), reduced.counts[keep].tolist()))
    bounds = np.concatenate(([0], np.cumsum(np.minimum(lengths, k)))).tolist()
    return tuple(tuple(hits[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def _slice_bounds(n: int, world_size: int, rank: int) -> tuple[int, int]:
    base, extra = divmod(n, world_size)
    lo = rank * base + min(rank, extra)
    return lo, lo + base + (1 if rank < extra else 0)


def _gathered_addresses(payloads: Sequence[bytes], n: int, config: LshConfig) -> np.ndarray:
    """The batch's (n, L) address rows from every rank's exchange payload:
    a u64 fingerprint of its config and mode, then its rows. Every fingerprint
    is checked before any row is read, so a peer with another config (rows of
    another width, say) or mode is a :class:`ConfigError` on every rank."""
    if any(len(p) < 8 for p in payloads):
        raise CollectiveError("address payload shorter than its config fingerprint")
    fingerprints = [struct.unpack_from("<Q", p)[0] for p in payloads]
    bad = [r for r, fp in enumerate(fingerprints) if fp != fingerprints[0]]
    if bad:
        raise ConfigError(f"configuration or mode mismatch across ranks (differs on {bad})")
    if any((len(p) - 8) % (8 * config.num_tables) for p in payloads):
        raise CollectiveError("address payload does not hold whole rows")
    rows = np.frombuffer(b"".join(p[8:] for p in payloads), "<u8").reshape(-1, config.num_tables)
    if rows.shape[0] != n:
        raise CollectiveError("gathered address count does not match batch size")
    if rows.size and int(rows.max()) >= config.table_range:
        raise CollectiveError("gathered address beyond the table range")
    return rows


def query_batch(
    index: NodeIndex,
    batch: QueryBatch,
    transport: Transport,
    mode: str = "sketch_tree",
    metrics: QueryMetrics | None = None,
) -> list[QueryResult] | None:
    """Run one batch against the distributed index; results land on rank 0.

    All ranks must call collectively with the same batch and mode. The
    ranks' fingerprints of config and mode travel with the addresses, in
    one allgather; if they disagree, every rank aborts before any probing.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    metrics = metrics if metrics is not None else QueryMetrics()
    config = index.config
    # the batch id must agree across ranks even when configs do not, so that
    # the config check in the address exchange is reached on every rank
    batch_id = batch.fingerprint()
    n = len(batch)
    lo, hi = _slice_bounds(n, transport.world_size, transport.rank)

    family = index.hash_family
    t0 = time.perf_counter()
    my_addrs = family.addresses([v for _, v in batch.queries[lo:hi]])
    # the mode rides in the fingerprint word, so ranks in different modes fail alike
    fingerprint = mix64(np.uint64(config.fingerprint() ^ MODES.index(mode)))
    payload = struct.pack("<Q", fingerprint) + my_addrs.astype("<u8").tobytes()
    metrics.hash_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    gathered = allgather(transport, payload, batch_id=batch_id)
    all_addrs = _gathered_addresses(gathered, n, config)
    metrics.gather_s += time.perf_counter() - t0

    t0 = time.perf_counter()
    probe = index.exact_candidates if mode == "exact" else index.local_candidates
    local = probe(all_addrs)
    metrics.local_merge_s += time.perf_counter() - t0

    # read the module globals at call time, so a patched reducer is the one run
    reducer = {
        "sketch_tree": tree_reduce_sketches,
        "sketch_linear": linear_reduce_sketches,
        "exact": tree_reduce_counts,
    }[mode]
    t0 = time.perf_counter()
    reduced = reducer(transport, local, batch_id=batch_id, stats=metrics.reduce_stats)
    metrics.reduce_s += time.perf_counter() - t0
    metrics.reduced = reduced

    if transport.rank != 0:
        return None

    t0 = time.perf_counter()
    assert reduced is not None
    hits = top_k_extract(reduced, config.top_k)
    results = [QueryResult(query_id=qid, hits=h) for (qid, _), h in zip(batch.queries, hits)]
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
