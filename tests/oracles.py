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

from sketchlsh.core import SparseVector


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
