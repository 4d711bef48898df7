"""Command-line interface: partition, index, query, bench, params."""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import SimulatedCluster, TcpTransport, TransportError
from .core import ConfigError, LshConfig, SketchLshError
from .dataio import (
    DatasetManifest,
    load_config,
    load_partition,
    lsh_config_from_mapping,
    parse_query_file,
    partition_dataset,
    read_hosts_file,
    save_lsh_config,
)
from .index import IndexFileError, NodeIndex, preprocess
from .params import (
    InfeasibleParamsError,
    LshSensitivity,
    ParameterError,
    recommend_params,
    snr_simulation,
)
from .query import MODES, QueryBatch, QueryMetrics, QueryResult, query_batch, s_at_k
from .synthetic import planted_instance, round_robin_partitions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRANSPORT = 4


def _build_config(args) -> LshConfig:
    kv = load_config(args.config) if getattr(args, "config", None) else {}
    return lsh_config_from_mapping(
        kv,
        hashes_per_table=getattr(args, "k", None),
        num_tables=getattr(args, "tables", None),
        table_range=getattr(args, "table_range", None),
        sketch_rows=getattr(args, "sketch_rows", None),
        sketch_cols=getattr(args, "sketch_cols", None),
        master_seed=getattr(args, "seed", None),
        top_k=getattr(args, "top_k", None),
    )


def _index_path(out_dir, rank: int) -> Path:
    return Path(out_dir) / f"index-{rank:05d}.bin"


def _load_index(indexes_dir, rank: int, config: LshConfig) -> NodeIndex:
    """Rank ``rank``'s saved index; a file built for another rank is an error."""
    path = _index_path(indexes_dir, rank)
    index = NodeIndex.load(path, config)
    if index.node_id != rank:
        raise IndexFileError(f"{path} holds the index of rank {index.node_id}, not {rank}")
    return index


def cmd_partition(args) -> int:
    manifest = partition_dataset(args.input, args.m, args.out, dim=args.dim)
    print(
        f"partitioned {manifest.total} records into {manifest.m} files "
        f"under {args.out} (dim={manifest.dim})"
    )
    print(f"checksum {manifest.checksum}")
    return EXIT_OK


def cmd_index(args) -> int:
    manifest = DatasetManifest.load(Path(args.manifest))
    manifest_dir = Path(args.manifest).parent
    config = _build_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_lsh_config(config, out_dir / "config.txt")
    ranks = [args.rank] if args.rank is not None else list(range(manifest.m))
    for rank in ranks:
        t0 = time.perf_counter()
        part, issues = load_partition(manifest, manifest_dir, rank)
        node = preprocess(part, config)
        path = _index_path(out_dir, rank)
        node.save(path)
        wall = time.perf_counter() - t0
        print(
            f"rank {rank}: indexed {node.vector_count} vectors in {wall:.3f}s "
            f"({len(issues) + len(node.rejected)} records rejected)"
        )
        print(
            f"  rank {rank} rejected: {len(issues)} parse issues, "
            f"{len(node.rejected)} empty vectors"
        )
        print(f"  rank {rank} {_index_shape(node, path.stat().st_size)}")
        for issue in issues[:10]:
            print(f"  rank {rank} skipped id {issue.vector_id}: {issue.message}")
    return EXIT_OK


def _index_shape(node: NodeIndex, file_bytes: int) -> str:
    """Bucket-size distribution, table occupancy and heavy buckets (those
    kept as finished sketches), from the index columns; then the index
    file's bytes per vector."""
    occupied = node.occupied_slots
    sizes = np.diff(node.offsets)
    buckets = (
        f"size max {sizes.max()}, p99 {np.percentile(sizes, 99):.1f}, mean {sizes.mean():.2f}"
        if sizes.size
        else "none"
    )
    heavy = sizes[node.heavy_pos]
    n = node.vector_count
    on_disk = f"{file_bytes / n:.1f} B per vector" if n else f"{file_bytes} B, no vectors"
    return (
        f"buckets: {buckets}; occupied per table: mean {np.mean(occupied):.1f}, "
        f"min {min(occupied)}, max {max(occupied)}; heavy: "
        f"{heavy.size} buckets holding {heavy.sum() / max(sizes.sum(), 1):.1%} of ids; "
        f"file: {on_disk}"
    )


def _run_simulated(
    indexes: list[NodeIndex], batch: QueryBatch, mode: str
) -> tuple[list[QueryResult], list[QueryMetrics]]:
    """One batch over a simulated cluster of ``len(indexes)`` ranks: rank
    0's results and every rank's metrics."""
    metrics = [QueryMetrics() for _ in indexes]
    outs = SimulatedCluster(len(indexes)).run(
        lambda tr: query_batch(indexes[tr.rank], batch, tr, mode, metrics=metrics[tr.rank])
    )
    return outs[0], metrics


def _bytes_sent(metrics: list[QueryMetrics]) -> int:
    """Reduce payload bytes that every rank of one batch sent, summed."""
    return sum(mt.reduce_stats.bytes_sent for mt in metrics)


def _write_results(out, results, metrics: QueryMetrics) -> None:
    lines = [r.to_line() for r in results]
    lines.append(metrics.to_line())
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_query(args) -> int:
    config = lsh_config_from_mapping(load_config(Path(args.indexes) / "config.txt"))
    manifest = DatasetManifest.load(args.manifest) if args.manifest else None
    dim = manifest.dim if manifest else None  # without a manifest, parse unbounded
    batch = QueryBatch(parse_query_file(args.queries, dim))
    if args.backend == "sim":
        world = manifest.m if manifest else args.world_size
        indexes = [_load_index(args.indexes, r, config) for r in range(world)]
        results, metrics = _run_simulated(indexes, batch, args.mode)
        _write_results(args.out, results, metrics[0])
        print(
            f"queried {len(batch)} vectors in mode {args.mode} over {world} ranks; "
            f"the reduce sent {_bytes_sent(metrics)} bytes"
        )
    else:
        if args.hosts is None:
            raise ConfigError("--backend tcp needs --hosts, the membership file")
        members = read_hosts_file(args.hosts)
        transport = TcpTransport(args.rank, members)
        try:
            index = _load_index(args.indexes, args.rank, config)
            metrics = QueryMetrics()
            results = query_batch(index, batch, transport, args.mode, metrics=metrics)
            if results is not None:  # rank 0
                _write_results(args.out, results, metrics)
            else:
                print(metrics.to_line())
        finally:
            transport.close()
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        m_values = [int(x) for x in args.m_list.split(",")]
    except ValueError:
        raise ConfigError(f"--m-list {args.m_list!r} must be comma-separated integers") from None
    config = LshConfig(  # checked before the instance is drawn under its seed
        hashes_per_table=args.k,
        num_tables=args.tables,
        table_range=args.table_range,
        master_seed=args.seed,
        top_k=args.per_query,
    )
    inst = planted_instance(
        n_background=args.n,
        n_queries=args.queries,
        per_query=args.per_query,
        dim=args.dim,
        nnz=args.nnz,
        swaps=args.swaps,
        seed=args.seed,
    )
    batch = QueryBatch(inst.queries)
    dataset_map = dict(inst.dataset)
    query_map = dict(inst.queries)
    modes = args.modes.split(",")
    rows = []
    for m in m_values:
        parts = round_robin_partitions(inst.dataset, m)
        t0 = time.perf_counter()
        indexes = [preprocess(p, config) for p in parts]
        index_s = time.perf_counter() - t0
        for mode in modes:
            t0 = time.perf_counter()
            results, metrics = _run_simulated(indexes, batch, mode)
            wall = time.perf_counter() - t0
            hit_rates = [
                len(inst.planted[res.query_id] & {i for i, _ in res.hits})
                / len(inst.planted[res.query_id])
                for res in results
            ]
            quality = s_at_k(results, query_map, dataset_map, config.top_k)
            rows.append(
                {
                    "m": m,
                    "mode": mode,
                    "mean_query_ms": 1000.0 * wall / len(batch),
                    "recall": float(np.mean(hit_rates)),
                    "s_at_k": quality,
                    "index_s": index_s,
                    "max_merge_rounds": max(
                        mt.reduce_stats.merge_rounds for mt in metrics
                    ),
                    "wire_bytes_per_query": _bytes_sent(metrics) / len(batch),
                }
            )
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as f:
        writer = csv.DictWriter(f, fieldnames=rows[0])
        writer.writeheader()
        writer.writerows(rows)
    # trend report only; desk-scale numbers do not gate anything
    idx_times = {r["m"]: r["index_s"] for r in rows}
    if len(m_values) > 1:
        first, last = m_values[0], m_values[-1]
        print(
            f"# indexing time trend: m={first} -> {idx_times[first]:.3f}s, "
            f"m={last} -> {idx_times[last]:.3f}s"
        )
        tree = [r for r in rows if r["mode"] == "sketch_tree"]
        if len(tree) > 1:
            ratio = tree[-1]["mean_query_ms"] / max(tree[0]["mean_query_ms"], 1e-9)
            print(f"# tree-mode query time m={first} vs m={last}: ratio {ratio:.2f}")
    return EXIT_OK


def cmd_params(args) -> int:
    sens = LshSensitivity(r=args.r, c=args.c, p1=args.p1, p2=args.p2)
    try:
        rec = recommend_params(sens, args.n, c1=args.c1, c2=args.c2, k_bound=args.top_k)
        # feasible only if some index can be built with it: the config's own bounds
        LshConfig(hashes_per_table=rec.k_rec, num_tables=rec.l_rec)
    except (InfeasibleParamsError, ConfigError) as exc:
        print(f"infeasible: {exc}")
        print("feasible=false")
        return EXIT_OK
    # simulated before anything is printed, so a rejected simulation prints no record
    report = (
        snr_simulation(sens, args.n, rec.k_rec, rec.l_rec, trials=args.trials, seed=args.seed)
        if args.simulate
        else None
    )
    print(
        f"{'rho':>12} {'K':>6} {'L':>6} {'K_lower':>10} {'K_upper':>10} {'L_floor':>10}"
    )
    print(
        f"{rec.rho:>12.6f} {rec.k_rec:>6} {rec.l_rec:>6} "
        f"{rec.k_lower:>10.4f} {rec.k_upper:>10.4f} {rec.l_floor:>10.2f}"
    )
    for key, value in (
        ("rho", rec.rho),
        ("K", rec.k_rec),
        ("L", rec.l_rec),
        ("k_lower", rec.k_lower),
        ("k_upper", rec.k_upper),
        ("l_floor", rec.l_floor),
        ("strong_ratio", rec.strong_ratio),
        ("sketch_rows", rec.sketch_rows),
        ("sketch_cols", rec.sketch_cols),
        ("feasible", "true"),
    ):
        print(f"{key}={value}")
    if report is not None:
        print(f"signal_mean={report.signal_mean:.4f}")
        print(f"expected_signal_mean={report.expected_signal_mean:.4f}")
        print(f"separation_rate={report.separation_rate:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchlsh",
        description="Distributed sketch-bucketed LSH similarity search for sparse binary vectors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="round-robin split a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("index", help="build and persist per-rank indexes")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--rank", type=int, default=None, help="build only this rank")
    p.add_argument("--k", type=int, default=None, help="hashes per table")
    p.add_argument("--tables", type=int, default=None)
    p.add_argument("--table-range", dest="table_range", type=int, default=None)
    p.add_argument("--sketch-rows", dest="sketch_rows", type=int, default=None)
    p.add_argument("--sketch-cols", dest="sketch_cols", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("query", help="run a query batch against saved indexes")
    p.add_argument("--indexes", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--mode", choices=MODES, default="sketch_tree")
    p.add_argument("--backend", choices=("sim", "tcp"), default="sim")
    p.add_argument("--world-size", dest="world_size", type=int, default=1)
    p.add_argument("--rank", type=int, default=0, help="this process's rank (tcp)")
    p.add_argument("--hosts", default=None, help="membership file (tcp)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("bench", help="planted-instance benchmark, CSV output")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--per-query", dest="per_query", type=int, default=8)
    p.add_argument("--dim", type=int, default=1 << 16)
    p.add_argument("--nnz", type=int, default=40)
    p.add_argument("--swaps", type=int, default=2)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--tables", type=int, default=16)
    p.add_argument("--table-range", dest="table_range", type=int, default=1 << 18)
    p.add_argument("--m-list", dest="m_list", default="1,2,4")
    p.add_argument("--modes", default=",".join(MODES))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("params", help="recommend K and L from sensitivity")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=2.0)
    p.add_argument("--c2", type=float, default=1.5)
    p.add_argument("--top-k", dest="top_k", type=int, default=8)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_params)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (SketchLshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
