"""The three workloads: set-up, a closed measurement loop, output checks.

Every workload is a closed loop: one client sends its next request only
after the previous one completed. The cluster is ``SimulatedCluster`` with
RANKS rank threads, one per core of the 2-core machine the benchmark was
tuned on; more rank threads than cores would measure the scheduler.

Times are taken twice: as wall time and as the CPU time of the whole
process (every rank thread included). The gated metrics use CPU time. The
ranks share one interpreter lock, so a batch's wall time on an idle machine
is close to its CPU time. On the shared 2-vCPU machine the benchmark was
tuned on, the hypervisor took 10-35% of the CPU away (steal time); over ten
seeds the interquartile range of the per-run median batch time was 13-34%
of the median in wall time and 4-7% in CPU time. Wall times stay in the
record.

An untraced run reports the end-to-end metrics. A traced run patches the
public entry points of every layer (see ``tracing``) for one set-up, one
save and load (or one build cycle) and one pass over the query batches, in
which every batch runs traced and then untraced for the tracing overhead.
It reports the per-layer metrics, then runs untraced batches until the
time is up; the record keeps those as ``*_after_trace`` samples.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable

import numpy as np

from sketchlsh.cluster import SimulatedCluster
from sketchlsh.core import DatasetPartition, LshConfig
from sketchlsh.dataio import load_partition, partition_dataset
from sketchlsh.index import NodeIndex, preprocess
from sketchlsh.query import QueryBatch, QueryMetrics, query_batch, s_at_k

import gen
import measure
from tracing import Tracer, self_times

CONFIG = LshConfig(hashes_per_table=4, num_tables=16, table_range=1 << 18, top_k=8)
RANKS = 2
SETUP_REPS = 3
# build-persist set-up (generate and write 1.96k vectors) takes about 0.1 s,
# so its median is taken over more repetitions.
WRITE_REPS = 9
LOAD_REPS = 3  # loads per saved file; a load is short, so take more samples
# The query workloads save and reload a SHARD-vector index of their own data
# after every PERSIST_EVERY-th batch pair, so that the save and load samples
# spread over the measured time like the batch samples. Taken together at
# set-up, three saves gave medians that spread by 25% between runs.
SHARD = 400
PERSIST_EVERY = 4
# Sketch (and exact) batches per untraced run. At least 40 samples keeps the
# reported tail at p75 or above (measure.tail_percentile) whatever the speed.
MIN_BATCHES = 40
# Build cycles per untraced build-persist run. Each cycle gives two save and
# one build-rate sample; with four cycles (what 10 s held) their medians
# spread by up to 19% between runs.
MIN_CYCLES = 8
PHASES = ("hash_s", "gather_s", "local_merge_s", "reduce_s", "extract_s")


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int], gen.WorkloadData]] = {
    "planted-query": lambda seed: gen.planted_data(
        seed, n_background=20000, n_queries=200, batch_size=50
    ),
    "skewed-query": lambda seed: gen.skewed_data(
        seed, n=20000, groups=400, a=1.1, n_batches=20, batch_size=5
    ),
    "build-persist": lambda seed: gen.planted_data(
        seed, n_background=1000, n_queries=120, batch_size=12
    ),
}


class Stopwatch:
    """Wall and process CPU seconds since construction."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def read(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


def same_columns(a: NodeIndex, b: NodeIndex) -> bool:
    return (
        a.node_id == b.node_id
        and a.vector_count == b.vector_count
        and len(a.tables) == len(b.tables)
        and all(
            np.array_equal(x.addrs, y.addrs)
            and np.array_equal(x.offsets, y.offsets)
            and np.array_equal(x.ids, y.ids)
            for x, y in zip(a.tables, b.tables)
        )
    )


def index_shape(indexes: list[NodeIndex]) -> dict:
    """Bucket-size distribution and table occupancy from the index columns."""
    sizes = np.concatenate([np.diff(t.offsets) for ix in indexes for t in ix.tables])
    return {
        "bucket_size_max": int(sizes.max()),
        "bucket_size_p99": float(np.percentile(sizes, 99)),
        "bucket_size_mean": float(sizes.mean()),
        "occupied_per_table": float(np.mean([t.addrs.size for ix in indexes for t in ix.tables])),
        "rejected": sum(len(ix.rejected) for ix in indexes),
    }


class Run:
    """State of one benchmark run: operation counts, samples, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.tracing = False  # True while the layers are patched
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.first_sketch: dict[int, list] = {}
        self.reference: dict[int, list] = {}
        self.shape: dict = {}
        self.wire_bytes = 0
        self.wire_queries = 0
        self.rejected_records = 0
        self.cycles = 0
        self.batch_seq = 0
        self.batch_mode: dict[int, str] = {}
        self.rank_phases = [defaultdict(float) for _ in range(RANKS)]
        self.reduce_totals: dict[str, int] = defaultdict(int)
        self.layers: dict = {}
        self.span_rows: list[tuple] = []

    # -- operations ----------------------------------------------------------------

    def attempt(self, what: str, fn: Callable[[], tuple[bool, object]]):
        """Run one operation; it fails if it raises or its output check fails."""
        self.attempted += 1
        try:
            ok, value = fn()
        except Exception as exc:  # a failed operation is counted and the run goes on
            ok, value = False, None
            self._error(f"{what}: {exc!r}")
        else:
            if not ok:
                self._error(f"{what}: output check failed")
        if not ok:
            self.failed += 1
        return value

    def _error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def sample(self, key: str, watch: Stopwatch) -> None:
        """CPU seconds under ``key``, wall seconds under ``key + '_wall'``."""
        wall, cpu = watch.read()
        self.samples[key].append(cpu)
        self.samples[key + "_wall"].append(wall)

    # -- query batches ------------------------------------------------------------

    def run_batch(self, indexes: list[NodeIndex], queries, mode: str, key: str | None = None):
        """One collective query batch on a fresh simulated cluster; its times
        are sampled under ``key`` when one is given."""
        batch = QueryBatch(queries)
        metrics = [QueryMetrics() for _ in indexes]
        cpu = [0.0] * len(indexes)

        def rank_main(transport):
            start = time.thread_time()
            try:
                return query_batch(
                    indexes[transport.rank], batch, transport, mode, metrics=metrics[transport.rank]
                )
            finally:
                cpu[transport.rank] = time.thread_time() - start

        self.batch_seq += 1
        self.batch_mode[self.batch_seq] = mode
        if self.tracer is not None:
            self.tracer.batch = self.batch_seq
        cluster = SimulatedCluster(len(indexes))
        watch = Stopwatch()
        try:
            results = cluster.run(rank_main)[0]
        finally:
            if self.tracer is not None:
                self.tracer.batch = -1
        if key is not None:
            self.sample(key, watch)
        return results, metrics, cpu

    def sketch_batch(self, indexes, data: gen.WorkloadData, b: int, key: str) -> None:
        def op():
            results, metrics, cpu = self.run_batch(indexes, data.batches[b], "sketch_tree", key)
            self.wire_bytes += sum(m.reduce_stats.bytes_sent for m in metrics)
            self.wire_queries += len(data.batches[b])
            if self.tracing:
                for rank, (m, c) in enumerate(zip(metrics, cpu)):
                    for phase in PHASES:
                        self.rank_phases[rank][phase] += getattr(m, phase)
                    self.rank_phases[rank]["cpu_s"] += c
                    for field in ("bytes_sent", "bytes_received", "merge_rounds"):
                        self.reduce_totals[field] += getattr(m.reduce_stats, field)
            first = self.first_sketch.setdefault(b, results)
            return results == first, None

        self.attempt(f"sketch batch {b}", op)

    def exact_batch(self, indexes, data: gen.WorkloadData, b: int, key: str) -> None:
        def op():
            results, _, _ = self.run_batch(indexes, data.batches[b], "exact", key)
            return results == self.reference[b], None

        self.attempt(f"exact batch {b}", op)

    def compute_reference(self, data: gen.WorkloadData) -> None:
        """Exact-mode answers of a single-rank index over the whole dataset;
        the ranked results must not depend on the partitioning."""
        whole = preprocess(DatasetPartition(0, data.dataset), CONFIG)
        for b, queries in enumerate(data.batches):
            self.reference[b] = self.run_batch([whole], queries, "exact")[0]

    def traced_pass(self, indexes, data: gen.WorkloadData) -> None:
        """One pass over every batch, each run traced and then untraced, so
        the overhead compares the same batches at nearly the same time."""
        for b in range(len(data.batches)):
            with self.traced():
                self.sketch_batch(indexes, data, b, "sketch")
                self.exact_batch(indexes, data, b, "exact")
            self.sketch_batch(indexes, data, b, "sketch_untraced")
            self.exact_batch(indexes, data, b, "exact_untraced")

    def query_pass(
        self,
        indexes,
        data: gen.WorkloadData,
        deadline: float = 0.0,
        min_pairs: int = 0,
        suffix="",
        shard: NodeIndex | None = None,
    ) -> None:
        """Alternate sketch and exact batches until ``deadline`` has passed
        and ``min_pairs`` pairs ran; the first pass over all batches always
        completes. A ``shard`` is persisted after every PERSIST_EVERY-th pair."""
        n = len(data.batches)
        i = 0
        while i < max(n, min_pairs) or time.perf_counter() < deadline:
            self.sketch_batch(indexes, data, i % n, "sketch" + suffix)
            self.exact_batch(indexes, data, i % n, "exact" + suffix)
            if shard is not None and i % PERSIST_EVERY == 0:
                self.persist(shard, self.workdir / "shard.bin")
            i += 1

    def quality(self, data: gen.WorkloadData) -> tuple[float, float]:
        """recall@k and s@k of the first sketch-mode answer to every query."""
        results = [r for b in sorted(self.first_sketch) for r in self.first_sketch[b]]
        k = CONFIG.top_k
        recalls = []
        for res in results:
            want = data.relevant[res.query_id]
            got = {vid for vid, _ in res.hits[:k]}
            recalls.append(len(want & got) / min(k, len(want)))
        quality = s_at_k(results, dict(data.queries), dict(data.dataset), k)
        return float(np.mean(recalls)), quality

    # -- building and persistence ---------------------------------------------------

    def build_ranks(self, manifest, parts_dir: Path) -> tuple[list[NodeIndex], int]:
        """``load_partition`` then ``preprocess`` for every rank; samples the
        build rate in vectors per CPU second of both calls."""
        indexes, records = [], 0
        watch = Stopwatch()
        for rank in range(RANKS):
            part, issues = self.call(
                "dataio.load_partition", load_partition, manifest, parts_dir, rank,
                count=lambda args, result: len(result[0]),
            )
            indexes.append(self.call("index.preprocess", preprocess, part, CONFIG))
            records += len(part)
            self.rejected_records += len(issues)
        self.samples["build_vectors_per_cpu_s"].append(records / watch.read()[1])
        return indexes, records

    def persist(self, index: NodeIndex, path: Path) -> NodeIndex | None:
        """Save one rank index, then load it LOAD_REPS times; every load
        must give back the saved columns."""

        def op():
            watch = Stopwatch()
            index.save(path)
            self.sample("save", watch)
            self.samples["index_bytes_per_vector"].append(os.path.getsize(path) / index.vector_count)
            ok = True
            for _ in range(LOAD_REPS):
                watch = Stopwatch()
                loaded = NodeIndex.load(path, CONFIG)
                self.sample("load", watch)
                ok = ok and same_columns(index, loaded)
            return ok, loaded

        return self.attempt(f"persist {path.name}", op)

    def build_cycle(self, source: Path, data: gen.WorkloadData, trace=False, suffix="") -> None:
        """Partition, then per rank load, build, save and reload; then one
        pass over every query batch against the reloaded indexes."""
        self.cycles += 1
        cycle_dir = self.workdir / f"cycle-{self.cycles}"

        def build():
            manifest = self.call(
                "dataio.partition_dataset", partition_dataset, source, RANKS, cycle_dir, gen.DIM
            )
            return True, self.build_ranks(manifest, cycle_dir)[0]

        try:
            with self.traced() if trace else nullcontext():
                indexes = self.attempt("build", build)
                if indexes is None:
                    return
                self.shape = index_shape(indexes)
                loaded = [self.persist(ix, cycle_dir / f"index-{ix.node_id}.bin") for ix in indexes]
            if any(ix is None for ix in loaded):
                return
            if trace:
                self.traced_pass(loaded, data)
            else:
                self.query_pass(loaded, data, suffix=suffix)
        finally:
            shutil.rmtree(cycle_dir, ignore_errors=True)

    # -- tracing ---------------------------------------------------------------------

    @contextmanager
    def traced(self):
        """Patch the layers in a traced run; a no-op in an untraced one."""
        if self.tracer is None:
            yield
            return
        with self.tracer.patched():
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False

    def call(self, name: str, fn: Callable, *args, count: Callable | None = None):
        if self.tracing:
            return self.tracer.call(name, fn, *args, count=count)
        return fn(*args)

    def end_trace(self) -> None:
        """Compute the per-layer metrics, then keep the spans only as plain
        rows, so the untraced batches that follow do not carry them."""
        self.attempt("restore patched attributes", lambda: (self.tracer.restored(), None))
        self.layers = per_layer(self)
        self.span_rows = self.tracer.to_rows()
        self.tracer.spans = []


# -- the workloads -------------------------------------------------------------------


def run_query_workload(run: Run, data: gen.WorkloadData) -> None:
    """Set-up is partition, load and build for every rank, SETUP_REPS times;
    then sketch and exact batches alternate for the measured time, with a
    save and reloads of a SHARD-vector index between them (a traced run
    persists it once, at set-up)."""
    source = run.workdir / "data.txt"
    gen.write_svmlight(source, data.dataset)
    shard = preprocess(DatasetPartition(0, data.dataset[0::RANKS][:SHARD]), CONFIG)
    reps = 1 if run.tracer else SETUP_REPS
    indexes: list[NodeIndex] = []
    with run.traced():
        for rep in range(reps):

            def setup():
                parts_dir = run.workdir / f"parts-{rep}"
                watch = Stopwatch()
                manifest = run.call(
                    "dataio.partition_dataset", partition_dataset, source, RANKS, parts_dir, gen.DIM
                )
                built = run.build_ranks(manifest, parts_dir)[0]
                run.sample("setup", watch)
                shutil.rmtree(parts_dir)
                ok = not indexes or all(same_columns(a, b) for a, b in zip(indexes, built))
                return ok, built

            built = run.attempt(f"set-up {rep}", setup)
            if built is None:
                raise RuntimeError("set-up failed: " + "; ".join(run.errors))
            indexes = built
        if run.tracer:
            run.persist(shard, run.workdir / "shard.bin")
    run.shape = index_shape(indexes)
    deadline = time.perf_counter() + run.seconds
    if run.tracer:
        run.traced_pass(indexes, data)
        run.end_trace()
        run.query_pass(indexes, data, deadline, suffix="_after_trace")
    else:
        run.query_pass(indexes, data, deadline, MIN_BATCHES, shard=shard)


def run_build_persist(run: Run, data: gen.WorkloadData) -> None:
    """Set-up writes the dataset as svmlight text, WRITE_REPS times; then
    build cycles run for the measured time, and at least MIN_CYCLES of them."""
    source = run.workdir / "data.txt"
    with run.traced():
        for rep in range(1 if run.tracer else WRITE_REPS):

            def setup():
                watch = Stopwatch()
                written = WORKLOADS[run.workload](run.seed)
                gen.write_svmlight(source, written.dataset)
                run.sample("setup", watch)
                return written.dataset == data.dataset, None

            run.attempt(f"set-up {rep}", setup)
    deadline = time.perf_counter() + run.seconds
    if run.tracer:
        run.build_cycle(source, data, trace=True)
        run.end_trace()
        while time.perf_counter() < deadline:
            run.build_cycle(source, data, suffix="_after_trace")
    else:
        while (
            time.perf_counter() < deadline
            or run.cycles < MIN_CYCLES
            or len(run.samples["sketch"]) < MIN_BATCHES
        ):
            run.build_cycle(source, data)


# -- results ------------------------------------------------------------------------


def finish(run: Run, data: gen.WorkloadData) -> dict:
    """The record of the run; ``record["metrics"]`` holds what the last line prints."""
    recall, quality = run.quality(data)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.tracer is not None,
        "ranks": RANKS,
        "config": {
            "hashes_per_table": CONFIG.hashes_per_table,
            "num_tables": CONFIG.num_tables,
            "table_range": CONFIG.table_range,
            "top_k": CONFIG.top_k,
        },
        "vectors": len(data.dataset),
        "queries": len(data.queries),
        "batches": len(data.batches),
        "build_cycles": run.cycles,
        "index_shape": run.shape,
        "recall_at_k": recall,
        "s_at_k": quality,
        # every timing key holds CPU seconds; its "_wall" twin wall seconds
        "samples": {key: measure.summarize(values) for key, values in sorted(run.samples.items())},
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
    }
    if run.tracer is None:
        record["metrics"] = end_to_end(run, recall, quality)
    else:
        record["metrics"] = dict(run.layers, **trace_overhead(run))
    return record


def end_to_end(run: Run, recall: float, quality: float) -> dict:
    sketch = measure.summarize(run.samples["sketch"])
    exact = measure.summarize(run.samples["exact"])
    s = run.samples
    values = {
        "setup_s": (statistics.median(s["setup"]), "s"),
        "sketch_batch_cpu_p50_s": (sketch["p50"], "s"),
        "sketch_batch_cpu_tail_s": (sketch["tail"], "s"),
        "exact_batch_cpu_p50_s": (exact["p50"], "s"),
        "exact_batch_cpu_tail_s": (exact["tail"], "s"),
        "recall_at_k": (recall, "ratio"),
        "s_at_k": (quality, "cosine"),
        "wire_bytes_per_query": (run.wire_bytes / run.wire_queries, "B"),
        "build_vectors_per_cpu_s": (statistics.median(s["build_vectors_per_cpu_s"]), "vectors/s"),
        "save_cpu_s": (statistics.median(s["save"]), "s"),
        "load_cpu_s": (statistics.median(s["load"]), "s"),
        "index_bytes_per_vector": (statistics.median(s["index_bytes_per_vector"]), "B"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        "success_rate": (1.0 - run.failed / run.attempted, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(run: Run) -> dict:
    """Totals over the traced work: one set-up, one save and load (or one
    build cycle), one pass over the query batches. Query-path metrics cover
    the sketch batches; ``index.exact_candidates_s`` the exact ones."""
    spans = run.tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(items):
        return sum(s.duration for s in items)

    def in_mode(name, mode="sketch_tree"):
        return [s for s in by_name[name] if run.batch_mode.get(s.batch) == mode]

    loads = by_name["dataio.load_partition"]
    records = sum(s.count for s in loads)
    hashes = by_name["hashing.addresses"]
    probes = in_mode("index.local_candidates")
    replays = [
        s for s in by_name["sketch.insert_many"]
        if s.parent is not None and s.parent.name == "index.local_candidates"
    ]
    inserts = by_name["sketch.insert_many"]
    ids_inserted = sum(s.count for s in inserts)
    recvs = in_mode("cluster.recv")
    cells = CONFIG.sketch_rows * CONFIG.sketch_cols
    values = {
        "dataio.records": (records, "count"),
        "dataio.rejected": (run.rejected_records, "count"),
        "dataio.load_partition_s": (total(loads), "s"),
        "dataio.us_per_record": (1e6 * total(loads) / records, "us"),
        "hashing.addresses_calls": (len(hashes), "count"),
        "hashing.busy_s": (total(hashes), "s"),
        "hashing.us_per_vector": (1e6 * total(hashes) / len(hashes), "us"),
        "index.build_self_s": (sum(own[id(s)] for s in by_name["index.preprocess"]), "s"),
        "index.save_s": (total(by_name["index.save"]), "s"),
        "index.load_s": (total(by_name["index.load"]), "s"),
        "index.file_bytes": (sum(s.count for s in by_name["index.save"]), "B"),
        "index.local_candidates_calls": (len(probes), "count"),
        "index.local_candidates_s": (total(probes), "s"),
        "index.local_candidates_self_s": (sum(own[id(s)] for s in probes), "s"),
        "index.ids_replayed": (sum(s.count for s in replays), "count"),
        "index.nonempty_probe_ratio": (len(replays) / (len(probes) * CONFIG.num_tables), "ratio"),
        "index.exact_candidates_s": (total(in_mode("index.exact_candidates", "exact")), "s"),
        "index.bucket_size_max": (run.shape["bucket_size_max"], "count"),
        "index.bucket_size_p99": (run.shape["bucket_size_p99"], "count"),
        "index.bucket_size_mean": (run.shape["bucket_size_mean"], "count"),
        "index.occupied_per_table": (run.shape["occupied_per_table"], "count"),
        "index.rejected": (run.shape["rejected"], "count"),
        "sketch.insert_many_calls": (len(inserts), "count"),
        "sketch.ids_inserted": (ids_inserted, "count"),
        "sketch.insert_s": (total(inserts), "s"),
        "sketch.us_per_id": (1e6 * total(inserts) / ids_inserted, "us"),
        "sketch.merge_calls": (len(by_name["sketch.merge"]), "count"),
        "sketch.merge_s": (total(by_name["sketch.merge"]), "s"),
        "sketch.to_bytes_s": (total(by_name["sketch.to_bytes"]), "s"),
        "sketch.from_bytes_s": (total(by_name["sketch.from_bytes"]), "s"),
        "sketch.cell_occupancy": (sum(s.count for s in probes) / (len(probes) * cells), "ratio"),
        "cluster.allgather_s": (total(in_mode("cluster.allgather")), "s"),
        "cluster.reduce_s": (total(in_mode("cluster.tree_reduce_sketches")), "s"),
        "cluster.recv_wait_s": (total(recvs), "s"),
        "cluster.frames": (len(recvs), "count"),
        "cluster.bytes_sent": (run.reduce_totals["bytes_sent"], "B"),
        "cluster.bytes_received": (run.reduce_totals["bytes_received"], "B"),
        "cluster.merge_rounds": (run.reduce_totals["merge_rounds"], "count"),
    }
    for rank, phases in enumerate(run.rank_phases):
        for phase in PHASES + ("cpu_s",):
            if phase != "extract_s" or rank == 0:  # only rank 0 extracts
                values[f"query.rank{rank}.{phase}"] = (phases[phase], "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def trace_overhead(run: Run) -> dict:
    """Median traced batch CPU time minus the median untraced one, per mode."""
    return {
        f"trace.{mode}_batch_overhead_s": {
            "value": statistics.median(run.samples[mode])
            - statistics.median(run.samples[mode + "_untraced"]),
            "unit": "s",
        }
        for mode in ("sketch", "exact")
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[dict, list[tuple]]:
    """One run; returns its record and, for a traced run, the span rows."""
    run = Run(name, seed, seconds, workdir, trace)
    env = measure.environment()
    data = WORKLOADS[name](seed)
    run.compute_reference(data)
    runner = run_build_persist if name == "build-persist" else run_query_workload
    runner(run, data)
    record = finish(run, data)
    record["environment"] = dict(env, loadavg_1min_end=measure.environment()["loadavg_1min"])
    return record, run.span_rows
