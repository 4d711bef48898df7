import csv
import math

import pytest

from sketchlsh.cli import main
from sketchlsh.dataio import format_record
from sketchlsh.params import LshSensitivity, recommend_params
from sketchlsh.synthetic import random_sparse_vectors


def parse_kv_output(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith(("#", " ")):
            key, _, value = line.partition("=")
            out[key] = value
    return out


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
