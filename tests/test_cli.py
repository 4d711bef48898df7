import csv
import functools
import gc
import math
import socket
import threading
import warnings

import numpy as np
import pytest

from sketchlsh import cli
from sketchlsh.cli import main
from sketchlsh.cluster import TcpTransport
from sketchlsh.core import ConfigError
from sketchlsh.dataio import format_record, load_config, lsh_config_from_mapping, parse_query_file
from sketchlsh.index import NodeIndex
from sketchlsh.params import LshSensitivity, recommend_params
from sketchlsh.query import QueryBatch
from sketchlsh.synthetic import planted_instance, random_sparse_vectors, vector_with_swaps

from oracles import free_ports


def parse_kv_output(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith(("#", " ")):
            key, _, value = line.partition("=")
            out[key] = value
    return out


def build_indexes(tmp_path, rng, m: int):
    """Partition 20 random vectors over m ranks and index them; returns the
    manifest path, the index directory and a one-query file."""
    vecs = random_sparse_vectors(rng, 20, 256, 8)
    data = tmp_path / "data.txt"
    data.write_text("".join(format_record(v) + "\n" for v in vecs))
    out = tmp_path / "parts"
    assert main(["partition", "--input", str(data), "--m", str(m), "--out", str(out)]) == 0
    idx_dir = tmp_path / "idx"
    assert main([
        "index", "--manifest", str(out / "manifest.txt"), "--out", str(idx_dir),
        "--k", "2", "--tables", "6", "--table-range", "512", "--seed", "3",
    ]) == 0
    queries = tmp_path / "q.txt"
    queries.write_text(format_record(vecs[4]) + "\n")
    return out / "manifest.txt", idx_dir, queries


class TestParamsCommand:
    def test_matches_library_recommendation(self, capsys):
        rc = main(["params", "--p1", "0.95", "--p2", "0.3", "--n", "10000"])
        assert rc == 0
        kv = parse_kv_output(capsys.readouterr().out)
        rec = recommend_params(LshSensitivity(r=0.0, c=1.0, p1=0.95, p2=0.3), 10_000)
        assert int(kv["K"]) == rec.k_rec
        assert int(kv["L"]) == rec.l_rec
        assert float(kv["rho"]) == pytest.approx(rec.rho)
        assert kv["feasible"] == "true"

    def test_infeasible_is_reported_not_crashed(self, capsys):
        rc = main(["params", "--p1", "0.7", "--p2", "0.6", "--n", "10000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "feasible=false" in out

    def test_rounding_does_not_make_a_feasible_instance_infeasible(self, capsys):
        # read "rounded K=3, L=1953125 violate the bounds" and feasible=false
        assert main(["params", "--p1", "0.8", "--p2", "0.05", "--n", "100", "--c1", "1e6"]) == 0
        kv = parse_kv_output(capsys.readouterr().out)
        assert kv["feasible"] == "true"
        assert float(kv["k_lower"]) <= int(kv["K"]) <= float(kv["k_upper"])

    def test_simulation_past_the_pmf_overflow(self, capsys):
        # L = 1,694 overflowed the math.comb pmf with a raw OverflowError, exit 1
        args = ["params", "--p1", "0.9", "--p2", "0.1", "--n", "1000", "--c1", "1e3", "--simulate"]
        assert main(args) == 0
        kv = parse_kv_output(capsys.readouterr().out)
        assert kv["L"] == "1694" and kv["feasible"] == "true"
        assert float(kv["separation_rate"]) == 1.0

    def test_bad_domain_is_config_error(self, capsys):
        rc = main(["params", "--p1", "0.2", "--p2", "0.6", "--n", "100"])
        assert rc == 2

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["--r", "nan"], "r must be finite"),
            (["--r", "inf"], "r must be finite"),
            (["--c", "nan"], "c must be finite"),
            (["--c", "inf"], "c must be finite"),
            (["--c1", "nan"], "C1 and C2 must be finite"),  # was feasible=false, exit 0
            (["--c1", "inf"], "C1 and C2 must be finite"),
            (["--c2", "nan"], "C1 and C2 must be finite"),
            (["--c2", "inf"], "C1 and C2 must be finite"),
            (["--n", str(10**400)], "overflow a float"),
            (["--simulate", "--n", "10000000000000000000000"], "n in 0..2^63 - 1"),
            (["--simulate", "--c1", "1e30"], "the most tables an index header stores"),
            (["--simulate", "--seed", "-1"], "seed >= 0"),  # was a raw ValueError, exit 1
        ],
        ids=["r-nan", "r-inf", "c-nan", "c-inf", "c1-nan", "c1-inf", "c2-nan", "c2-inf",
             "n-401-digits", "simulate-n-past-int64", "simulate-l-past-the-header",
             "simulate-negative-seed"],
    )
    def test_numbers_the_formulas_cannot_take_are_config_errors(self, capsys, args, reason):
        assert main(["params", "--p1", "0.9", "--p2", "0.1", "--n", "1000", *args]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: ") and reason in err
        assert "Traceback" not in err
        assert out == ""  # no record of a recommendation the command then failed


class TestEndToEnd:
    def test_partition_index_query_self_hit(self, tmp_path, rng, capsys):
        vecs = random_sparse_vectors(rng, 30, 512, 12)
        data = tmp_path / "data.txt"
        data.write_text("".join(format_record(v) + "\n" for v in vecs))
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "2", "--out", str(out)]) == 0
        idx_dir = tmp_path / "idx"
        assert main([
            "index", "--manifest", str(out / "manifest.txt"), "--out", str(idx_dir),
            "--k", "2", "--tables", "8", "--table-range", "1024", "--seed", "5",
            "--top-k", "3",
        ]) == 0
        queries = tmp_path / "q.txt"
        queries.write_text(format_record(vecs[7]) + "\n")
        results = tmp_path / "results.txt"
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--manifest", str(out / "manifest.txt"), "--mode", "sketch_tree",
            "--out", str(results),
        ]) == 0
        lines = results.read_text().splitlines()
        first = lines[0].split("\t")
        assert first[0] == "0"
        top_id, top_count = first[1].split(":")
        assert int(top_id) == 7  # the vector finds itself
        assert int(top_count) == 8  # collides in every table
        assert lines[-1].startswith("# phases")

    def test_query_without_manifest_single_rank(self, tmp_path, rng):
        vecs = random_sparse_vectors(rng, 20, 256, 8)
        data = tmp_path / "data.txt"
        data.write_text("".join(format_record(v) + "\n" for v in vecs))
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "1", "--out", str(out)]) == 0
        idx_dir = tmp_path / "idx"
        assert main([
            "index", "--manifest", str(out / "manifest.txt"), "--out", str(idx_dir),
            "--k", "2", "--tables", "6", "--table-range", "512", "--seed", "3",
            "--top-k", "2",
        ]) == 0
        queries = tmp_path / "q.txt"
        queries.write_text(format_record(vecs[4]) + "\n")
        results = tmp_path / "r.txt"
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--world-size", "1", "--out", str(results),
        ]) == 0
        top = results.read_text().splitlines()[0].split("\t")[1]
        assert top == "4:6"

    def test_truncated_index_is_data_error(self, tmp_path, rng, capsys):
        vecs = random_sparse_vectors(rng, 20, 256, 8)
        data = tmp_path / "data.txt"
        data.write_text("".join(format_record(v) + "\n" for v in vecs))
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "1", "--out", str(out)]) == 0
        idx_dir = tmp_path / "idx"
        assert main([
            "index", "--manifest", str(out / "manifest.txt"), "--out", str(idx_dir),
            "--k", "2", "--tables", "6", "--table-range", "512", "--seed", "3",
        ]) == 0
        index_file = idx_dir / "index-00000.bin"
        index_file.write_bytes(index_file.read_bytes()[:-5])
        queries = tmp_path / "q.txt"
        queries.write_text(format_record(vecs[4]) + "\n")
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--world-size", "1", "--out", str(tmp_path / "r.txt"),
        ]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_query_file_not_utf8_is_data_error(self, tmp_path, rng, capsys):
        manifest, idx_dir, queries = build_indexes(tmp_path, rng, m=1)
        queries.write_bytes(b"1 3:1 \xff:1\n")
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--manifest", str(manifest), "--out", str(tmp_path / "r.txt"),
        ]) == 3
        assert "not UTF-8" in capsys.readouterr().err

    def test_dataset_lines_not_utf8_are_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_bytes(b"1 2:1 5:1\n\xff 2:1 4:1\n1 7:\xff 9:1\n")
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "1", "--out", str(out)]) == 0
        assert (out / "part-00000.txt").read_bytes() == data.read_bytes()
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(out / "manifest.txt"), "--out", str(tmp_path / "idx"),
            "--k", "2", "--tables", "4", "--table-range", "64",
        ]) == 0
        printed = capsys.readouterr().out
        assert "indexed 1 vectors" in printed and "(2 records rejected)" in printed
        assert printed.count("not UTF-8 text") == 2

    def test_index_prints_its_shape(self, tmp_path, capsys):
        # rank 0 gets lines 0, 2, 4, 6: two copies of one vector, a blank line, another vector
        data = tmp_path / "data.txt"
        data.write_text("1 2:1 5:1\n1 3:1\n1 2:1 5:1\n1 4:1\n\n1 4:1\n1 9:1\n")
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(out / "manifest.txt"), "--out", str(tmp_path / "idx"),
            "--k", "2", "--tables", "4", "--table-range", "64",
        ]) == 0
        printed = capsys.readouterr().out
        assert "rank 0: indexed 3 vectors" in printed and "(1 records rejected)" in printed
        assert "rank 0 rejected: 1 parse issues, 0 empty vectors" in printed
        # the two copies share a bucket in every table: sizes are {2, 1} per table
        assert "rank 0 buckets: size max 2, p99 2.0, mean 1.50; " in printed
        assert "occupied per table: mean 2.0, min 2, max 2" in printed
        assert "rank 1 rejected: 0 parse issues, 0 empty vectors" in printed

    def test_index_prints_its_bytes_per_vector(self, tmp_path, capsys):
        # rank 0 holds 3 vectors over 2 buckets per table, rank 1 none
        data = tmp_path / "data.txt"
        data.write_text("1 2:1 5:1\n\n1 2:1 5:1\n\n1 4:1\n")
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(out / "manifest.txt"), "--out", str(tmp_path / "idx"),
            "--k", "2", "--tables", "4", "--table-range", "64",
        ]) == 0
        shapes = [ln for ln in capsys.readouterr().out.splitlines() if "buckets:" in ln]
        # 40 B of header, 3 u64 ids, then u32 keys, offsets and rows: 4 tables
        # of 2 keys, 9 offsets and 12 rows
        size = 40 + 8 * 3 + 4 * (8 + 9 + 12)
        assert (tmp_path / "idx" / "index-00000.bin").stat().st_size == size
        assert shapes[0].endswith(f"; file: {size / 3:.1f} B per vector")
        assert shapes[1].endswith("; file: 44 B, no vectors")

    def test_index_reports_heavy_buckets(self, tmp_path, rng, capsys):
        # 150 copies of one vector among 30 others; a sketch of 2 x 4 cells
        # keeps every bucket of more than 8 ids as a finished sketch
        vecs = random_sparse_vectors(rng, 30, 256, 8)
        vecs += vecs[:1] * 150
        data = tmp_path / "data.txt"
        data.write_text("".join(format_record(v) + "\n" for v in vecs))
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(out / "manifest.txt"), "--out", str(tmp_path / "idx"),
            "--k", "2", "--tables", "4", "--table-range", "4096", "--sketch-rows", "2",
            "--sketch-cols", "4",
        ]) == 0
        printed = capsys.readouterr().out
        config = lsh_config_from_mapping(load_config(tmp_path / "idx" / "config.txt"))
        index = NodeIndex.load(tmp_path / "idx" / "index-00000.bin", config)
        sizes = [np.diff(t.offsets) for t in index.tables]
        heavy = [s[s > 8] for s in sizes]
        count = sum(h.size for h in heavy)
        share = sum(h.sum() for h in heavy) / sum(s.sum() for s in sizes)
        assert count >= 4 and share >= 151 / 180
        assert f"; heavy: {count} buckets holding {share:.1%} of ids" in printed

    def test_index_saved_for_another_rank_is_data_error(self, tmp_path, rng, capsys):
        manifest, idx_dir, queries = build_indexes(tmp_path, rng, m=2)
        (idx_dir / "index-00001.bin").write_bytes((idx_dir / "index-00000.bin").read_bytes())
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--manifest", str(manifest), "--out", str(tmp_path / "r.txt"),
        ]) == 3
        assert "index of rank 0, not 1" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", ["5", "-1"])
    def test_index_rank_outside_manifest_is_config_error(self, tmp_path, rng, capsys, rank):
        manifest, _, _ = build_indexes(tmp_path, rng, m=2)
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(manifest), "--out", str(tmp_path / "idx2"), "--rank", rank,
        ]) == 2
        assert f"rank {rank} is outside the manifest's ranks 0..1" in capsys.readouterr().err
        assert not any((tmp_path / "idx2").glob("index-*"))

    def test_unreachable_peer_is_transport_error(self, tmp_path, rng, capsys, monkeypatch):
        _, idx_dir, queries = build_indexes(tmp_path, rng, m=2)
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("".join(f"{r} 127.0.0.1:{p}\n" for r, p in enumerate(free_ports(2))))
        monkeypatch.setattr(cli, "TcpTransport", functools.partial(TcpTransport, connect_timeout=0.5))
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--backend", "tcp", "--rank", "1", "--hosts", str(hosts),
        ]) == 4
        assert "cannot reach rank 0" in capsys.readouterr().err

    def test_port_in_use_is_transport_error(self, tmp_path, rng, capsys):
        _, idx_dir, queries = build_indexes(tmp_path, rng, m=2)
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            hosts = tmp_path / "hosts.txt"
            hosts.write_text(f"0 127.0.0.1:{port}\n1 127.0.0.1:{free_ports(1)[0]}\n")
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                assert main([
                    "query", "--indexes", str(idx_dir), "--queries", str(queries),
                    "--backend", "tcp", "--rank", "0", "--hosts", str(hosts),
                ]) == 4
                gc.collect()
        assert f"rank 0: cannot listen on 127.0.0.1:{port}" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_every_tcp_rank_reports_its_phases(self, tmp_path, rng, capsys):
        _, idx_dir, queries = build_indexes(tmp_path, rng, m=2)
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("".join(f"{r} 127.0.0.1:{p}\n" for r, p in enumerate(free_ports(2))))
        results = tmp_path / "r.txt"
        codes = [None, None]

        def rank_main(rank):
            codes[rank] = main([
                "query", "--indexes", str(idx_dir), "--queries", str(queries),
                "--backend", "tcp", "--rank", str(rank), "--hosts", str(hosts),
                "--out", str(results),
            ])

        capsys.readouterr()
        threads = [threading.Thread(target=rank_main, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert codes == [0, 0]
        # rank 0 writes its hits and phases to --out; rank 1 prints its phases
        lines = results.read_text().splitlines()
        assert len(lines) == 2 and lines[-1].startswith("# phases hash=")
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("# phases hash=")

    def test_index_key_range_past_2_64_is_config_error(self, tmp_path, rng, capsys):
        manifest, _, _ = build_indexes(tmp_path, rng, m=1)
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(manifest), "--out", str(tmp_path / "idx2"),
            "--tables", "8", "--table-range", str(1 << 62),
        ]) == 2
        assert "table_range * num_tables must be at most 2^64" in capsys.readouterr().err
        assert not any((tmp_path / "idx2").glob("index-*"))

    @pytest.mark.parametrize(
        "flag, field",
        [("--table-range", "table_range"), ("--k", "hashes_per_table"),
         ("--sketch-rows", "sketch_rows"), ("--top-k", "top_k")],
    )
    def test_index_field_past_a_u64_is_config_error(self, tmp_path, rng, capsys, flag, field):
        manifest, _, _ = build_indexes(tmp_path, rng, m=1)
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(manifest), "--out", str(tmp_path / "idx2"),
            "--tables", "1", flag, str(1 << 64),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{field} must fit in 64 bits" in err
        assert not any((tmp_path / "idx2").glob("index-*"))

    def test_index_sketch_cols_past_a_u32_is_config_error(self, tmp_path, rng, capsys):
        manifest, _, _ = build_indexes(tmp_path, rng, m=1)
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(manifest), "--out", str(tmp_path / "idx2"),
            "--tables", "1", "--sketch-cols", str(1 << 32),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "sketch_cols must be at most 2^32 - 1" in err
        assert not any((tmp_path / "idx2").glob("index-*"))

    def test_index_densified_bins_past_a_u32_is_config_error(self, tmp_path, rng, capsys):
        manifest, _, _ = build_indexes(tmp_path, rng, m=1)
        capsys.readouterr()
        assert main([
            "index", "--manifest", str(manifest), "--out", str(tmp_path / "idx2"),
            "--k", "65536", "--tables", "65536",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "densified" in err
        assert not any((tmp_path / "idx2").glob("index-*"))

    @pytest.mark.parametrize("m", [1, 2])
    def test_sim_query_reports_the_reduce_bytes(self, tmp_path, rng, capsys, m):
        manifest, idx_dir, queries = build_indexes(tmp_path, rng, m)
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--manifest", str(manifest), "--out", str(tmp_path / "r.txt"),
        ]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        head, _, sent = summary.partition("; the reduce sent ")
        assert head == f"queried 1 vectors in mode sketch_tree over {m} ranks"
        config = load_config(idx_dir / "config.txt")
        indexes = [
            NodeIndex.load(idx_dir / f"index-{r:05d}.bin", lsh_config_from_mapping(config))
            for r in range(m)
        ]
        batch = QueryBatch(parse_query_file(queries, None))
        _, metrics = cli._run_simulated(indexes, batch, "sketch_tree")
        expected = sum(mt.reduce_stats.bytes_sent for mt in metrics)
        assert sent == f"{expected} bytes" and (expected > 0) == (m > 1)
        assert (tmp_path / "r.txt").read_text().splitlines()[-1].startswith("# phases hash=")

    def test_tcp_without_hosts_is_config_error(self, tmp_path, rng, capsys):
        _, idx_dir, queries = build_indexes(tmp_path, rng, m=1)
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries), "--backend", "tcp",
        ]) == 2
        assert "--hosts" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", ["5", "-1"])
    def test_tcp_rank_outside_hosts_file_is_config_error(self, tmp_path, rng, capsys, rank):
        _, idx_dir, queries = build_indexes(tmp_path, rng, m=2)
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("".join(f"{r} 127.0.0.1:{p}\n" for r, p in enumerate(free_ports(2))))
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--backend", "tcp", "--rank", rank, "--hosts", str(hosts),
        ]) == 2
        assert f"rank {rank} is outside the cluster's ranks 0..1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "0 127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:0", "127.0.0.1:-5", "nohost",
        "1 127.0.0.1:9002",  # rank 1 on the line of rank 0
        "x 127.0.0.1:9001",  # a rank that is not a number
        "foo bar 127.0.0.1:9003",  # more than two tokens
    ])
    def test_bad_hosts_file_is_config_error(self, tmp_path, rng, capsys, line):
        _, idx_dir, queries = build_indexes(tmp_path, rng, m=1)
        hosts = tmp_path / "hosts.txt"
        hosts.write_text(line + "\n")
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--backend", "tcp", "--hosts", str(hosts), "--out", str(tmp_path / "r.txt"),
        ]) == 2
        assert "malformed host line" in capsys.readouterr().err

    @pytest.mark.parametrize("drop,replace", [
        ("partition.1.records", None),
        ("partition.0.path", None),
        ("m", None),
        ("m", "m=two"),
        ("partition.1.offset", "partition.1.offset=1.5"),
        ("total", "total="),
    ])
    def test_bad_manifest_is_config_error(self, tmp_path, rng, capsys, drop, replace):
        manifest, _, _ = build_indexes(tmp_path, rng, m=2)
        lines = [ln for ln in manifest.read_text().splitlines() if not ln.startswith(drop + "=")]
        manifest.write_text("\n".join(lines + ([replace] if replace else [])) + "\n")
        capsys.readouterr()
        assert main(["index", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 2
        assert f"manifest key {drop} " in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        ("partition.1.offset=1\n", "partition.1.offset=0\n"),  # ids 0, 2, ... on both ranks
        ("\nm=2\n", "\nm=0\n"),  # nothing indexed, yet exit 0
    ])
    def test_inconsistent_manifest_is_config_error(self, tmp_path, rng, capsys, old, new):
        manifest, _, _ = build_indexes(tmp_path, rng, m=2)
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new))
        capsys.readouterr()
        assert main(["index", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 2
        assert "offsets are not a permutation of 0..m-1" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("dim", "0", "manifest dim=0 must be >= 1"),  # every line a parse issue, yet exit 0
        ("total", "99", "manifest total=99 is not the sum"),
    ])
    def test_manifest_dim_or_total_off_is_config_error(self, tmp_path, rng, capsys, key, value, message):
        manifest, _, _ = build_indexes(tmp_path, rng, m=2)
        lines = manifest.read_text().splitlines()
        edited = [f"{key}={value}" if ln.startswith(f"{key}=") else ln for ln in lines]
        assert edited != lines
        manifest.write_text("\n".join(edited) + "\n")
        capsys.readouterr()
        assert main(["index", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("world", ["0", "-1"])
    def test_query_world_size_below_one_is_config_error(self, tmp_path, rng, capsys, world):
        _, idx_dir, queries = build_indexes(tmp_path, rng, m=1)
        capsys.readouterr()
        assert main([
            "query", "--indexes", str(idx_dir), "--queries", str(queries),
            "--world-size", world, "--out", str(tmp_path / "r.txt"),
        ]) == 2
        assert "config error: world_size must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("records", [9, 11])
    def test_partition_line_count_off_its_records_is_data_error(self, tmp_path, rng, capsys, records):
        # 11: the file lost a line, so the partition would index short; the
        # total follows the records, so the manifest itself stays consistent
        manifest, _, _ = build_indexes(tmp_path, rng, m=2)
        text = manifest.read_text()
        assert "partition.0.records=10\n" in text and "total=20\n" in text
        text = text.replace("total=20\n", f"total={10 + records}\n")
        manifest.write_text(text.replace("partition.0.records=10\n", f"partition.0.records={records}\n"))
        capsys.readouterr()
        assert main(["index", "--manifest", str(manifest), "--out", str(tmp_path / "again")]) == 3
        assert f"holds 10 lines; the manifest says {records}" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["0", "-4"])
    def test_partition_dim_below_one_is_config_error_before_any_file(self, tmp_path, capsys, dim):
        data = tmp_path / "data.txt"
        data.write_text("1 1:1 2:1\n1 3:1\n")
        out = tmp_path / "parts"
        assert main(["partition", "--input", str(data), "--m", "2", "--out", str(out), "--dim", dim]) == 2
        assert f"config error: dim={dim} must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["partition", "--input", str(tmp_path / "nope.txt"), "--m", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3


class TestBenchCommand:
    def test_cluster_size_below_one_is_config_error(self, capsys):
        assert main([
            "bench", "--n", "40", "--queries", "2", "--per-query", "2", "--dim", "1024",
            "--nnz", "8", "--m-list", "0", "--modes", "exact",
        ]) == 2
        assert "config error: world_size must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dim, nnz, swaps, reason",
        [
            (40, 40, 2, "swaps 2 exceeds the 0 indices free"),
            (41, 40, 2, "swaps 2 exceeds the 1 indices free"),
            (1024, 0, 2, "nnz 0 must be in 1..dim"),
            (8, 24, 2, "nnz 24 must be in 1..dim"),
            (1024, 8, 8, "swaps 8 must be in 0..nnz - 1"),
            (1024, 8, -1, "swaps -1 must be in 0..nnz - 1"),
        ],
    )
    def test_generator_arguments_it_cannot_meet_are_config_errors(
        self, capsys, dim, nnz, swaps, reason
    ):
        # checked before the first draw: too few free indices once made the
        # swap draw loop forever
        with pytest.raises(ConfigError, match=reason):
            planted_instance(10, 2, 2, dim=dim, nnz=nnz, swaps=swaps)
        assert main([
            "bench", "--n", "10", "--queries", "2", "--dim", str(dim), "--nnz", str(nnz),
            "--swaps", str(swaps),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err

    @pytest.mark.parametrize("dim, nnz, swaps", [(40, 40, 2), (41, 40, 2), (1024, 8, 8), (1024, 8, -1)])
    def test_swaps_a_vector_cannot_take_are_rejected_before_any_draw(self, rng, dim, nnz, swaps):
        base = random_sparse_vectors(rng, 1, dim, nnz)[0]
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=f"swaps {swaps}"):
            vector_with_swaps(rng, base, swaps)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["--seed", "-1"], "master_seed must be >= 0"),  # was numpy's ValueError
            (["--dim", str(2**63)], "exceeds 2^63 - 1"),  # was numpy's OverflowError
            (["--n", "-3"], "n_background -3"),  # was "vector id -3", exit 3
            (["--queries", "-1"], "n_queries -1"),
        ],
        ids=["seed", "dim", "n", "queries"],
    )
    def test_arguments_rejected_before_any_draw(self, capsys, args, reason):
        assert main(["bench", "--n", "10", "--queries", "2", "--per-query", "2", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_background": -1}, {"n_queries": -1}, {"per_query": -1}, {"dim": 2**63}],
        ids=["n_background", "n_queries", "per_query", "dim"],
    )
    def test_planted_instance_checks_counts_and_dim(self, kwargs):
        args = {"n_background": 10, "n_queries": 2, "per_query": 2, "dim": 1024, "nnz": 8, **kwargs}
        with pytest.raises(ConfigError):
            planted_instance(**args)

    @pytest.mark.parametrize("m_list", ["a", "1,,2"])
    def test_m_list_not_integers_is_config_error(self, capsys, m_list):
        assert main(["bench", "--n", "40", "--m-list", m_list]) == 2
        assert f"config error: --m-list {m_list!r}" in capsys.readouterr().err

    def test_emits_expected_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main([
            "bench", "--n", "400", "--queries", "20", "--per-query", "4",
            "--dim", "16384", "--nnz", "24", "--m-list", "1,2",
            "--modes", "sketch_tree,exact", "--tables", "8", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert {"m", "mode", "mean_query_ms", "recall", "s_at_k"} <= set(rows[0])
        assert {r["mode"] for r in rows} == {"sketch_tree", "exact"}
        assert {int(r["m"]) for r in rows} == {1, 2}
        for row in rows:
            assert 0.0 <= float(row["recall"]) <= 1.0
            assert 0.0 <= float(row["s_at_k"]) <= 1.0
        # tree merge rounds obey the schedule bound
        for row in rows:
            if row["mode"] == "sketch_tree" and int(row["m"]) > 1:
                assert int(row["max_merge_rounds"]) == math.ceil(math.log2(int(row["m"])))
        # every rank's reduce bytes per query: none at m = 1; at m = 2 rank 1's
        # sketch record, within its header, column widths, mask and 128 cells
        # of 2-byte ids and 1-byte counts per query
        wire = {(int(r["m"]), r["mode"]): float(r["wire_bytes_per_query"]) for r in rows}
        assert wire[1, "sketch_tree"] == wire[1, "exact"] == 0.0
        assert 0 < wire[2, "sketch_tree"] <= (8 + 8 * 4 + 2) / 20 + 16 + 3 * 128
        assert 0 < wire[2, "exact"]

    def test_wire_bytes_are_every_rank_s_bytes_sent_per_query(self, monkeypatch, capsys):
        runs = []
        run_simulated = cli._run_simulated

        def recording(indexes, batch, mode):
            results, metrics = run_simulated(indexes, batch, mode)
            runs.append(sum(mt.reduce_stats.bytes_sent for mt in metrics) / len(batch))
            return results, metrics

        monkeypatch.setattr(cli, "_run_simulated", recording)
        assert main([
            "bench", "--n", "200", "--queries", "6", "--per-query", "3", "--dim", "4096",
            "--nnz", "16", "--m-list", "3", "--modes", "sketch_linear,exact", "--tables", "4",
        ]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [float(r["wire_bytes_per_query"]) for r in rows] == runs
        assert all(x > 0 for x in runs)
