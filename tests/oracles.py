"""Independent oracles and helpers that test modules import by name.

Kept out of ``conftest.py`` so that ``from oracles import ...`` resolves to
this file even when another suite's ``conftest`` is loaded in the same
pytest session.
"""

from __future__ import annotations

import socket
import threading
from collections import Counter, defaultdict

import numpy as np

from sketchlsh.core import SketchLshError, SparseVector
from sketchlsh.dataio import (
    BlockLineReader,
    RecordIssue,
    RecordParseError,
    _utf8_text,
    parse_record,
)
from sketchlsh.hashing import doph_hashes, table_address


def exact_jaccard(a: SparseVector, b: SparseVector) -> float:
    """Two-pointer sorted-list intersection; independent of any hashing."""
    ai, bi = a.indices.tolist(), b.indices.tolist()
    i = j = inter = 0
    while i < len(ai) and j < len(bi):
        if ai[i] == bi[j]:
            inter += 1
            i += 1
            j += 1
        elif ai[i] < bi[j]:
            i += 1
        else:
            j += 1
    union = len(ai) + len(bi) - inter
    return inter / union if union else 0.0


def pair_with_jaccard(rng, shared: int, only_a: int, only_b: int, dim: int = 1 << 17):
    """Two vectors with exactly `shared` common indices; J = s/(s+only_a+only_b)."""
    idx = rng.choice(dim, size=shared + only_a + only_b, replace=False)
    s = idx[:shared]
    a = idx[shared : shared + only_a]
    b = idx[shared + only_a :]
    va = SparseVector(np.sort(np.concatenate([s, a])), dim)
    vb = SparseVector(np.sort(np.concatenate([s, b])), dim)
    return va, vb


def reference_addresses(family, vectors) -> np.ndarray:
    """Per-vector (n, L) bucket addresses: one :func:`doph_hashes` call per
    vector and one :func:`table_address` fold per table."""
    num_tables, k = family.seeds.shape
    out = np.empty((len(vectors), num_tables), dtype=np.uint64)
    for i, v in enumerate(vectors):
        slots = doph_hashes(v, num_tables * k, family.perm_seed).reshape(num_tables, k)
        for t in range(num_tables):
            out[i, t] = table_address(slots[t], int(family.table_seeds[t]), family.table_range)
    return out


def per_line_partition(path, dim, offset: int = 0, m: int = 1):
    """A partition file parsed line by line with :func:`parse_record`:
    (vector id, indices) per kept line, and a :class:`RecordIssue` per
    rejected one."""
    rows, issues = [], []
    for j, line in enumerate(BlockLineReader(path)):
        vid = offset + j * m
        try:
            _, vec = parse_record(_utf8_text(line, j), dim=dim, line_no=j)
            rows.append((vid, vec.indices.tolist()))
        except SketchLshError as exc:
            issues.append(RecordIssue(vector_id=vid, line_no=j, message=str(exc)))
    return rows, issues


def per_line_dim(path) -> int:
    """The dimension a dataset implies: 1 + its largest parseable index, at least 1."""
    widest = -1
    for line in BlockLineReader(path):
        try:
            _, vec = parse_record(_utf8_text(line))
        except SketchLshError:
            continue
        widest = max(widest, int(vec.indices[-1]))
    return max(widest + 1, 1)


def per_line_queries(path, dim):
    """A query file read as text and parsed line by line, blank lines skipped."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise RecordParseError(f"query file {path} is not UTF-8 text: {exc}") from None
    pairs = []
    for i, line in enumerate(text.splitlines()):
        if line.strip():
            pairs.append((i, parse_record(line, dim=dim, line_no=i)[1]))
    return pairs


def cell_arrival_counts(sketch, stream: np.ndarray) -> dict[tuple[int, int], Counter]:
    """Exact per-cell arrival multisets for a stream routed like the sketch."""
    bins = sketch._row_bins(np.asarray(stream, dtype=np.uint64))
    cells: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for i, item in enumerate(stream.tolist()):
        for r in range(sketch.rows):
            cells[(r, int(bins[i, r]))][int(item)] += 1
    return cells


def replay_cells(sketch, stream: np.ndarray) -> dict[tuple[int, int], tuple[int, int]]:
    """Independent dict-based replay of the per-cell counter state machine."""
    bins = sketch._row_bins(np.asarray(stream, dtype=np.uint64))
    state: dict[tuple[int, int], list[int]] = {}
    for i, item in enumerate(stream.tolist()):
        for r in range(sketch.rows):
            key = (r, int(bins[i, r]))
            cur = state.get(key)
            if cur is None:
                state[key] = [int(item), 1]
            elif cur[0] == int(item):
                cur[1] += 1
            elif cur[1] == 0:
                state[key] = [int(item), 1]
            else:
                cur[1] -= 1
    return {k: (v[0], v[1]) for k, v in state.items()}


def replayed_sketch(template, stream: np.ndarray):
    """A new single sketch shaped like ``template`` holding the dict replay of
    ``stream``, cell for cell (ids of cells counted down to 0 included)."""
    from sketchlsh.sketch import TopkapiSketch

    out = TopkapiSketch(template.rows, template.cols, template.row_seeds)
    for (r, b), (item, count) in replay_cells(out, np.asarray(stream, dtype=np.uint64)).items():
        out.ids[r, b] = item
        out.counts[r, b] = count
    return out


def free_ports(count: int) -> list[int]:
    socks = []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def run_tcp_threads(world_size: int, fn, io_timeout: float = 20.0):
    """Run fn(transport) per rank over a localhost TCP mesh, one thread each."""
    from sketchlsh.cluster import TcpTransport

    members = [("127.0.0.1", p) for p in free_ports(world_size)]
    results = [None] * world_size
    errors: list[BaseException] = []

    def runner(rank: int) -> None:
        transport = None
        try:
            transport = TcpTransport(rank, members, io_timeout=io_timeout)
            results[rank] = fn(transport)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            if transport is not None:
                transport.close()

    threads = [threading.Thread(target=runner, args=(r,)) for r in range(world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
