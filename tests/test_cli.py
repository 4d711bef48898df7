import csv
import functools
import math

import pytest

from sketchlsh import cli
from sketchlsh.cli import main
from sketchlsh.cluster import TcpTransport
from sketchlsh.dataio import format_record
from sketchlsh.params import LshSensitivity, recommend_params
from sketchlsh.synthetic import random_sparse_vectors

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

    def test_bad_domain_is_config_error(self, capsys):
        rc = main(["params", "--p1", "0.2", "--p2", "0.6", "--n", "100"])
        assert rc == 2


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

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["partition", "--input", str(tmp_path / "nope.txt"), "--m", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 3


class TestBenchCommand:
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
