"""Spawn targets for the multi-process TCP acceptance run.

Every child rebuilds the same deterministic instance and index from the
shared seed, mirroring how independent nodes come up from one configuration.
"""

from __future__ import annotations


def build_state(seed: int, world: int):
    from sketchlsh.core import LshConfig
    from sketchlsh.index import preprocess
    from sketchlsh.synthetic import planted_instance, round_robin_partitions

    inst = planted_instance(1200, 30, 4, dim=1 << 14, nnz=24, swaps=2, seed=seed)
    cfg = LshConfig(
        hashes_per_table=6,
        num_tables=12,
        table_range=1 << 16,
        top_k=4,
        master_seed=seed,
    )
    parts = round_robin_partitions(list(inst.dataset), world)
    indexes = [preprocess(p, cfg) for p in parts]
    return inst, cfg, indexes


def tcp_rank_main(rank, members, seed, world, mode, queue):
    try:
        from sketchlsh.cluster import TcpTransport
        from sketchlsh.query import QueryBatch, QueryMetrics, query_batch

        inst, _cfg, indexes = build_state(seed, world)
        batch = QueryBatch(inst.queries)
        transport = TcpTransport(rank, members)
        try:
            metrics = QueryMetrics()
            results = query_batch(indexes[rank], batch, transport, mode, metrics=metrics)
        finally:
            transport.close()
        if rank == 0:
            queue.put(
                ("ok", rank, [r.to_bytes() for r in results], metrics.reduced.to_bytes())
            )
        else:
            queue.put(("ok", rank, None, None))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        queue.put(("err", rank, repr(exc), None))
