import io
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchlsh.cluster import SimulatedCluster
from sketchlsh.core import ConfigError, EmptyVectorError, LshConfig, SketchLshError
from sketchlsh.dataio import (
    DatasetManifest,
    PartitionInfo,
    RecordParseError,
    format_record,
    load_config,
    load_partition,
    lsh_config_from_mapping,
    parse_query_file,
    parse_record,
    partition_dataset,
    read_hosts_file,
    save_lsh_config,
)
from sketchlsh.index import preprocess
from sketchlsh.query import QueryBatch, query_batch
from sketchlsh.synthetic import random_sparse_vectors
import sketchlsh.dataio as dataio

from oracles import (
    BlockLineReader,
    partition_vectors,
    per_line_dim,
    per_line_partition,
    per_line_queries,
    per_line_split,
)


class TestParseRecord:
    def test_one_based_normalization(self):
        label, vec = parse_record("1 3:1 7:1 9:1", dim=10)
        assert label == "1"
        assert vec.indices.tolist() == [2, 6, 8]
        assert vec.dim == 10

    def test_no_features_is_empty_vector_error(self):
        with pytest.raises(EmptyVectorError):
            parse_record("0", dim=10)

    def test_blank_line_rejected(self):
        with pytest.raises(EmptyVectorError):
            parse_record("   ", dim=10)

    def test_malformed_token_reports_line(self):
        with pytest.raises(RecordParseError, match="line 41"):
            parse_record("1 3:1 junk", dim=10, line_no=41)

    def test_non_integer_index(self):
        with pytest.raises(RecordParseError):
            parse_record("1 a:1", dim=10)

    def test_non_increasing_indices(self):
        with pytest.raises(RecordParseError):
            parse_record("1 5:1 5:1", dim=10)
        with pytest.raises(RecordParseError):
            parse_record("1 5:1 3:1", dim=10)

    def test_index_beyond_dim(self):
        with pytest.raises(RecordParseError):
            parse_record("1 11:1", dim=10)

    def test_index_past_64_bits_is_typed(self):
        # without a dim, the largest index sets it; one past 2**64 cannot be stored
        _, vec = parse_record(f"1 {1 << 64}:1")
        assert int(vec.indices[0]) == (1 << 64) - 1
        with pytest.raises(SketchLshError):
            parse_record(f"1 {(1 << 64) + 1}:1")

    def test_zero_index_rejected(self):
        with pytest.raises(RecordParseError):
            parse_record("1 0:1", dim=10)

    def test_label_optional(self):
        _, vec = parse_record("3:1 4:1", dim=10)
        assert vec.indices.tolist() == [2, 3]

    def test_round_trip(self):
        _, vec = parse_record("1 3:1 7:1 9:1", dim=10)
        _, again = parse_record(format_record(vec), dim=10)
        assert vec == again

    def test_fuzz_never_crashes(self, rng):
        for _ in range(300):
            length = int(rng.integers(0, 40))
            junk = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
            line = junk.decode("latin-1")
            try:
                parse_record(line, dim=1000, line_no=0)
            except (RecordParseError, EmptyVectorError):
                pass  # every outcome must be a located error or a vector


class TestPartition:
    def _write_dataset(self, path, n, rng, dim=64, nnz=5):
        vecs = random_sparse_vectors(rng, n, dim, nnz)
        path.write_text("".join(format_record(v) + "\n" for v in vecs))
        return vecs

    def test_m1_identical_content(self, tmp_path, rng):
        src = tmp_path / "data.txt"
        self._write_dataset(src, 10, rng)
        manifest = partition_dataset(src, 1, tmp_path / "out")
        assert manifest.total == 10
        assert (tmp_path / "out" / "part-00000.txt").read_text() == src.read_text()

    def test_round_robin_sizes(self, tmp_path, rng):
        src = tmp_path / "data.txt"
        self._write_dataset(src, 10, rng)
        manifest = partition_dataset(src, 3, tmp_path / "out")
        assert [p.records for p in manifest.partitions] == [4, 3, 3]
        assert [p.offset for p in manifest.partitions] == [0, 1, 2]
        assert sum(p.records for p in manifest.partitions) == manifest.total

    def test_checksum_stable_across_runs(self, tmp_path, rng):
        src = tmp_path / "data.txt"
        self._write_dataset(src, 12, rng)
        m1 = partition_dataset(src, 2, tmp_path / "a")
        m2 = partition_dataset(src, 2, tmp_path / "b")
        assert m1.checksum == m2.checksum
        assert m1.checksum.startswith("sha256:")

    def test_manifest_round_trip(self, tmp_path, rng):
        src = tmp_path / "data.txt"
        self._write_dataset(src, 7, rng)
        manifest = partition_dataset(src, 2, tmp_path / "out")
        loaded = DatasetManifest.load(tmp_path / "out" / "manifest.txt")
        assert loaded == manifest

    def test_ids_are_global_line_offsets(self, tmp_path, rng):
        src = tmp_path / "data.txt"
        vecs = self._write_dataset(src, 9, rng)
        manifest = partition_dataset(src, 2, tmp_path / "out", dim=64)
        part1, issues = load_partition(manifest, tmp_path / "out", 1)
        assert not issues
        assert [vid for vid, _ in partition_vectors(part1)] == [1, 3, 5, 7]
        assert partition_vectors(part1)[0][1] == vecs[1]

    def test_malformed_lines_become_issues_not_aborts(self, tmp_path):
        src = tmp_path / "data.txt"
        src.write_text("1 1:1 2:1\nrubbish&&\n1 3:1\n0\n")
        manifest = partition_dataset(src, 1, tmp_path / "out", dim=8)
        part, issues = load_partition(manifest, tmp_path / "out", 0)
        assert [vid for vid, _ in partition_vectors(part)] == [0, 2]
        assert sorted(i.vector_id for i in issues) == [1, 3]

    def test_lines_not_utf8_copied_verbatim_and_reported(self, tmp_path):
        src = tmp_path / "data.txt"
        raw = b"1 2:1 5:1\n\xff 2:1 4:1\n1 7:\xff 9:1\n"
        src.write_bytes(raw)
        for m in (1, 2):
            manifest = partition_dataset(src, m, tmp_path / f"out{m}", dim=16)
            parts = [(tmp_path / f"out{m}" / p.path).read_bytes() for p in manifest.partitions]
            lines = raw.splitlines(keepends=True)
            assert parts == [b"".join(lines[r::m]) for r in range(m)]
        manifest = partition_dataset(src, 1, tmp_path / "out")
        assert manifest.dim == 5  # lines that are not UTF-8 do not widen the dimension
        part, issues = load_partition(manifest, tmp_path / "out", 0)
        assert [(vid, list(v.indices)) for vid, v in partition_vectors(part)] == [(0, [1, 4])]
        assert [(i.vector_id, i.line_no) for i in issues] == [(1, 1), (2, 2)]
        assert all(i.message.endswith("not UTF-8 text") for i in issues)
        # the reader keeps the bytes as lone surrogates, so valid lines read as before
        assert list(BlockLineReader(src))[0] == "1 2:1 5:1"

    def test_dim_inferred_from_content(self, tmp_path):
        src = tmp_path / "data.txt"
        src.write_text("1 2:1 9:1\n1 4:1\n")
        manifest = partition_dataset(src, 1, tmp_path / "out")
        assert manifest.dim == 9  # largest index 9 is 8 zero-based

    def test_io_failure_cleans_partial_output(self, tmp_path, rng, monkeypatch):
        src = tmp_path / "data.txt"
        self._write_dataset(src, 20, rng)
        out = tmp_path / "out"
        original = dataio._line_blocks
        passed, written = [], []

        def failing(f):
            for block in original(f):
                if passed:
                    written.extend(sorted(p.name for p in out.glob("part-*")))
                    raise OSError("disk gone")
                passed.append(block)
                yield block

        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
        monkeypatch.setattr(dataio, "_line_blocks", failing)
        with pytest.raises(OSError, match="disk gone"):
            partition_dataset(src, 3, out)
        assert len(passed) == 1 and src.stat().st_size > 2 * 64  # failed at block 2 of several
        assert written == ["part-00000.txt", "part-00001.txt", "part-00002.txt"]
        assert not any(out.glob("part-*")) and not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("dim", [None, 64])
    def test_input_opened_once(self, tmp_path, rng, monkeypatch, dim):
        src = tmp_path / "data.txt"
        self._write_dataset(src, 20, rng)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(dataio, "open", counting_open, raising=False)
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
        manifest = partition_dataset(src, 3, tmp_path / "out", dim=dim)
        assert manifest.total == 20
        assert opened.count(src) == 1

    @pytest.mark.parametrize("rank", [-1, 2, 5])
    def test_rank_outside_manifest_is_config_error(self, tmp_path, rng, rank):
        src = tmp_path / "data.txt"
        self._write_dataset(src, 4, rng)
        manifest = partition_dataset(src, 2, tmp_path / "out")
        with pytest.raises(ConfigError, match=f"rank {rank} is outside"):
            load_partition(manifest, tmp_path / "out", rank)

    def test_repartition_preserves_exact_query_results(self, tmp_path, rng):
        src = tmp_path / "data.txt"
        vecs = self._write_dataset(src, 60, rng, dim=256, nnz=8)
        cfg = LshConfig(hashes_per_table=2, num_tables=6, table_range=1 << 10, top_k=4, master_seed=12)
        queries = [(100 + i, vecs[i]) for i in range(10)]
        outputs = {}
        for m in (2, 4):
            manifest = partition_dataset(src, m, tmp_path / f"out{m}")
            indexes = []
            for r in range(m):
                part, _ = load_partition(manifest, tmp_path / f"out{m}", r)
                indexes.append(preprocess(part, cfg))
            batch = QueryBatch(queries)
            outs = SimulatedCluster(m).run(
                lambda tr: query_batch(indexes[tr.rank], batch, tr, "exact")
            )
            outputs[m] = b"".join(r.to_bytes() for r in outs[0])
        assert outputs[2] == outputs[4]


class TestBlockReader:
    """The line reader of the per-line oracles."""

    def test_reads_in_large_blocks(self, tmp_path):
        path = tmp_path / "big.txt"
        lines = [f"{i} 1:1" for i in range(5000)]
        path.write_text("\n".join(lines) + "\n")
        size = os.path.getsize(path)
        block = 8192
        assert size > 2 * block  # lines straddle blocks
        assert list(BlockLineReader(path, block_size=block)) == lines

    def test_handles_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"a 1:1\nb 2:1")
        assert list(BlockLineReader(path)) == ["a 1:1", "b 2:1"]


class TestConfigFiles:
    def test_round_trip_and_precedence(self, tmp_path):
        cfg = LshConfig(hashes_per_table=5, num_tables=12, table_range=1 << 10,
                        sketch_rows=4, sketch_cols=24, master_seed=99, top_k=6)
        path = tmp_path / "config.txt"
        save_lsh_config(cfg, path)
        assert path.read_text() == (
            "hashes_per_table=5\nnum_tables=12\ntable_range=1024\nsketch_rows=4\n"
            "sketch_cols=24\nmaster_seed=99\ntop_k=6\n"
        )
        kv = load_config(path)
        assert lsh_config_from_mapping(kv) == cfg
        overridden = lsh_config_from_mapping(kv, num_tables=20)
        assert overridden.num_tables == 20
        assert overridden.hashes_per_table == 5

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nnum_tables=3\n")
        assert load_config(path) == {"num_tables": "3"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("oops\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hosts_file(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("# cluster\n0 127.0.0.1:9001\n1 127.0.0.1:9002\n")
        assert read_hosts_file(path) == [("127.0.0.1", 9001), ("127.0.0.1", 9002)]

    @pytest.mark.parametrize("text", [
        "1 127.0.0.1:9002\n0 127.0.0.1:9001\n",  # ranks out of order
        "0 127.0.0.1:9001\n# gap\n2 127.0.0.1:9002\n",  # comments are not counted
        "0 127.0.0.1:9001\n\u0661 127.0.0.1:9002\n",  # a digit that is not ASCII
        "foo bar 127.0.0.1:9003\n",
    ])
    def test_hosts_file_rank_column_is_checked(self, tmp_path, text):
        path = tmp_path / "hosts.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed host line"):
            read_hosts_file(path)


# -- the array parser against the per-line oracle ----------------------------------

DIM = 40
EXAMPLES = settings(max_examples=200, deadline=None, database=None)
# index texts the array pass reads, and ones it must leave to parse_record:
# 0, past DIM, leading zeros, signs and underscores (int() takes them), 19-21
# digits, empty, non-ASCII digits
INDEX_TEXT = st.one_of(
    st.integers(0, DIM + 2).map(str),
    st.integers(0, DIM).map(lambda i: f"{i:019d}"),
    st.integers(0, DIM).map(lambda i: f"{i:018d}"),
    st.sampled_from(["+5", "5_0", "-3", "", "x", "\u0663", "9" * 19, "1" + "0" * 20, str(1 << 64)]),
)
VALUES = st.sampled_from(["1", "", "0.5", "1:2", ":", "x"])
FEATURE = st.builds(lambda i, v: f"{i}:{v}", INDEX_TEXT, VALUES)
ODD_TOKENS = st.sampled_from(
    ["1", "-1", "abc", "\u00e9", "\x0b", "\x0c", "\x00", "\x1c", "\x7f", "\r", "\xa0", "\u2028", ":1"]
)
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def odd_line(draw) -> bytes:
    tokens = draw(st.lists(st.one_of(FEATURE, FEATURE, ODD_TOKENS), max_size=6))
    text = ""
    for tok in tokens:
        text += draw(SEPARATORS) + tok
    return (text if draw(st.booleans()) else text.lstrip()).encode("utf-8")


# increasing indices, sometimes one past DIM
VALID_LINE = st.builds(
    lambda label, ix: (label + " ".join(f"{i}:1" for i in sorted(ix))).encode(),
    st.sampled_from(["", "1 ", "0 ", "-1\t"]),
    st.lists(st.integers(1, DIM + 1), min_size=1, max_size=8, unique=True),
)
# bytes that the array pass must not take for clean text
ODD_BYTES = st.sampled_from(
    [b"\xff", b"\xc3\xa9", b"\xc2\xa0", b"\x0b", b"\x00", b"\x1c", b"\x7f", b"\r", b":", b"+", b"0"]
)
DIRTY_LINE = st.builds(
    lambda line, odd, at: line[: at % (len(line) + 1)] + odd + line[at % (len(line) + 1) :],
    VALID_LINE,
    ODD_BYTES,
    st.integers(0, 200),
)
LINES = st.lists(
    st.one_of(VALID_LINE, VALID_LINE, DIRTY_LINE, odd_line(), st.binary(max_size=12)),
    max_size=14,
)
FILES = st.builds(
    lambda lines, eol, last: eol.join(lines) + (eol if last else b""),
    LINES,
    st.sampled_from([b"\n", b"\r\n", b"\r\r\n", b"\n\n"]),
    st.booleans(),
)
# a block of a few bytes makes lines straddle blocks; the default holds the file
BLOCKS = st.sampled_from([1, 3, 16, dataio._BLOCK_BYTES])


def loaded_rows(part):
    bounds = part.rows.indptr.tolist()
    return [
        (vid, part.rows.indices[lo:hi].tolist())
        for vid, lo, hi in zip(part.ids.tolist(), bounds, bounds[1:])
    ]


class TestArrayParser:
    @EXAMPLES
    @given(data=FILES, block=BLOCKS, m=st.integers(1, 3), offset=st.integers(0, 2))
    def test_partition_equals_per_line_oracle(self, tmp_path_factory, data, block, m, offset):
        path = tmp_path_factory.mktemp("parse") / "part.txt"
        path.write_bytes(data)
        records = len(list(BlockLineReader(path)))
        info = PartitionInfo(path=path.name, records=records, offset=offset)
        manifest = DatasetManifest(total=0, dim=DIM, m=m, checksum="", partitions=(info,))
        with mock.patch.object(dataio, "_BLOCK_BYTES", block):
            part, issues = load_partition(manifest, path.parent, 0)
        rows, want_issues = per_line_partition(path, DIM, offset, m)
        assert loaded_rows(part) == rows
        assert issues == want_issues
        assert part.rows.dim == DIM and part.node_id == 0

    @EXAMPLES
    @given(data=FILES, block=BLOCKS)
    def test_inferred_dim_equals_per_line_oracle(self, tmp_path_factory, data, block):
        src = tmp_path_factory.mktemp("dim") / "data.txt"
        src.write_bytes(data)
        with mock.patch.object(dataio, "_BLOCK_BYTES", block):
            manifest = partition_dataset(src, 2, src.parent / "out")
        assert manifest.dim == per_line_dim(src)

    @EXAMPLES
    @given(data=FILES, block=BLOCKS, dim=st.sampled_from([None, DIM]))
    def test_query_file_equals_per_line_oracle(self, tmp_path_factory, data, block, dim):
        path = tmp_path_factory.mktemp("queries") / "q.txt"
        path.write_bytes(data)
        try:
            want = per_line_queries(path, dim)
        except SketchLshError as exc:
            want = exc
        with mock.patch.object(dataio, "_BLOCK_BYTES", block):
            if isinstance(want, SketchLshError):
                with pytest.raises(type(want)) as got:
                    parse_query_file(path, dim)
                assert str(got.value) == str(want)
            else:
                assert parse_query_file(path, dim) == want

    @pytest.mark.parametrize("line", [
        b"1 2:1 3:1",  # clean
        b"1 2:1 3:1\r",  # trailing \r run, stripped
        b"1 2:1\r3:1",  # \r inside: str.split() takes it as a space
        "1 2:1\u00a03:1".encode(),  # no-break space: also a separator to str.split()
        b"1 002:1 3:1",  # leading zeros
        b"1 +2:1 3:1",  # a sign
        b"1 2_0:1",  # an underscore
        b"1 2:1:5 3:1",  # a second ':' in the value
        b"2:1:5 3:1",  # ... and in a first token
        b"1 " + b"0" * 19 + b"2:1",  # 20 digits, value 2
        "1 \u0663:1".encode(),  # an Arabic-Indic digit: int() reads it as 3
        b"1 2:1\x0b3:1",  # a vertical tab: a separator to str.split()
    ])
    def test_flagged_lines_the_oracle_accepts_keep_their_vectors(self, tmp_path, line):
        path = tmp_path / "part.txt"
        path.write_bytes(b"1 1:1\n" + line + b"\n1 4:1\n")
        manifest = partition_dataset(path, 1, tmp_path / "out", dim=DIM)
        part, issues = load_partition(manifest, tmp_path / "out", 0)
        rows, want = per_line_partition(tmp_path / "out" / "part-00000.txt", DIM)
        assert not issues and not want
        assert loaded_rows(part) == rows
        assert len(part) == 3

    def test_carriage_returns_separate_tokens_without_the_reference(self, tmp_path, monkeypatch):
        path = tmp_path / "part.txt"
        path.write_bytes(b"1 1:1\n1 2:1\r3:1\n1\r4:1 \r5:1\r\r\n1 6:1\r\n\r1 7:1\r\t8:1\n")
        info = PartitionInfo(path=path.name, records=5, offset=0)
        manifest = DatasetManifest(total=5, dim=DIM, m=1, checksum="", partitions=(info,))
        calls = []
        reference = dataio.parse_record
        monkeypatch.setattr(dataio, "parse_record", lambda *a: calls.append(a) or reference(*a))
        part, issues = load_partition(manifest, tmp_path, 0)
        assert calls == [] and issues == []
        rows, want = per_line_partition(path, DIM)
        assert loaded_rows(part) == rows and want == []
        assert [row for _, row in rows] == [[0], [1, 2], [3, 4], [5], [6, 7]]

    @pytest.mark.parametrize("line", [
        b"", b"  \t", b"1", b"1 0:1", b"1 %d:1" % (DIM + 1), b"1 3:1 2:1", b"1 3:1 3:1",
        b"1 x:1", b"1 2:1 junk", b"1 :1", b"1 -2:1", b"\xff 2:1", b"1 7:\xff",
        b"1 " + b"9" * 19 + b":1", b"1 2\x00:1",
    ])
    def test_rejected_lines_give_the_oracle_issues(self, tmp_path, line):
        path = tmp_path / "part.txt"
        path.write_bytes(b"1 1:1\n" + line + b"\n1 4:1\n")
        manifest = partition_dataset(path, 1, tmp_path / "out", dim=DIM)
        part, issues = load_partition(manifest, tmp_path / "out", 0)
        rows, want = per_line_partition(tmp_path / "out" / "part-00000.txt", DIM)
        assert len(want) == 1 and issues == want
        assert loaded_rows(part) == rows and len(part) == 2

    def test_one_scan_per_block(self, tmp_path, monkeypatch):
        path = tmp_path / "part.txt"
        path.write_bytes(b"".join(b"1 %d:1 %d:1\n" % (i + 1, i + 2) for i in range(30)))
        calls = []
        original = dataio._scan_block
        monkeypatch.setattr(dataio, "_scan_block", lambda *a: calls.append(1) or original(*a))
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 64)
        manifest = partition_dataset(path, 1, tmp_path / "out", dim=DIM)
        calls.clear()
        part, issues = load_partition(manifest, tmp_path / "out", 0)
        with open(path, "rb") as f:
            blocks = list(dataio._line_blocks(f))
        assert len(part) == 30 and not issues
        assert len(blocks) > 1 and len(calls) == len(blocks)

    def test_query_vectors_keep_their_read_only_split_views(self, tmp_path, monkeypatch):
        path = tmp_path / "q.txt"
        path.write_bytes(b"1 1:1 5:1\n\n1 2:1\n1 3:1 4:1 9:1\n")
        splits, split = [], np.split

        def spy(*args):
            splits.extend(split(*args))
            return splits

        monkeypatch.setattr(np, "split", spy)
        parsed = parse_query_file(path, DIM)
        assert [no for no, _ in parsed] == [0, 2, 3] and len(splits) == 3
        for (_, vector), view in zip(parsed, splits):
            assert vector.indices is view and not view.flags.writeable

    def test_query_lines_end_only_at_newlines(self, tmp_path):
        # form feed, NEL and U+2028 end a line for str.splitlines, not here:
        # inside a line they separate tokens, as parse_record splits them
        path = tmp_path / "q.txt"
        path.write_bytes("1 1:1\x0c3:1\n1 2:1\x855:1\n1 4:1\u20286:1\n1 7:1\n".encode())
        parsed = parse_query_file(path, DIM)
        assert [no for no, _ in parsed] == [0, 1, 2, 3]
        assert [v.indices.tolist() for _, v in parsed] == [[0, 2], [1, 4], [3, 5], [6]]


# the line list of test_rejected_lines_give_the_oracle_issues, read from its mark
REJECTED_LINES = next(
    mark.args[1]
    for mark in TestArrayParser.test_rejected_lines_give_the_oracle_issues.pytestmark
    if mark.name == "parametrize"
)


class TestRejectedLines:
    @pytest.mark.parametrize("line", REJECTED_LINES)
    def test_query_file_raises_the_oracle_error_or_skips_a_blank(self, tmp_path, line):
        path = tmp_path / "q.txt"
        path.write_bytes(b"1 1:1\n" + line + b"\n1 4:1\n")
        if line.strip():
            with pytest.raises(SketchLshError) as want:
                per_line_queries(path, DIM)
            with pytest.raises(type(want.value)) as got:
                parse_query_file(path, DIM)
            assert str(got.value) == str(want.value)
        else:
            assert parse_query_file(path, DIM) == per_line_queries(path, DIM)
            assert [no for no, _ in parse_query_file(path, DIM)] == [0, 2]

    @pytest.mark.parametrize("line", REJECTED_LINES)
    def test_inferred_dim_equals_per_line_oracle(self, tmp_path, line):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1 1:1\n" + line + b"\n1 4:1\n")
        assert partition_dataset(path, 2, tmp_path / "out").dim == per_line_dim(path)

    def test_parse_lines_returns_numbers_and_messages(self):
        data = b"1 1:1\n1 3:1 2:1\n1 2:1\n\n1 x:1\n"
        n_lines, kept, counts, indices, rejected = dataio._parse_lines(io.BytesIO(data), DIM)
        assert (n_lines, kept.tolist(), counts.tolist()) == (5, [0, 2], [1, 1])
        assert rejected == [
            (1, "line 1: feature indices must be strictly increasing (saw 2)"),
            (3, "line 3: blank record"),
            (4, "line 4: feature index 'x' is not an integer"),
        ]
        # plain pairs: an exception object would keep its traceback, and so the block, alive
        assert all(type(no) is int and type(message) is str for no, message in rejected)


# -- the one-pass split against the per-line oracle ---------------------------------

# each line ends its own way; a lone \r stays inside the line it does not end
EOLS = st.sampled_from([b"\n", b"\r\n", b"\r\r\n", b"\r", b"\n\n"])
SPLIT_FILES = st.builds(
    lambda body, tail: b"".join(line + eol for line, eol in body) + tail,
    st.lists(st.tuples(st.one_of(VALID_LINE, DIRTY_LINE, st.binary(max_size=12)), EOLS), max_size=14),
    # a last line without a newline, which may be nothing but \r
    st.one_of(st.sampled_from([b"", b"\r", b"\r\r", b"\xff\r"]), VALID_LINE, st.binary(max_size=12)),
)


class TestPartitionPass:
    @EXAMPLES
    @given(
        data=SPLIT_FILES,
        block=st.sampled_from([1, 7, dataio._BLOCK_BYTES]),
        m=st.integers(1, 3),
        dim=st.sampled_from([None, DIM]),
    )
    def test_partition_equals_per_line_split(self, tmp_path_factory, data, block, m, dim):
        src = tmp_path_factory.mktemp("split") / "data.txt"
        src.write_bytes(data)
        out = src.parent / "out"
        with mock.patch.object(dataio, "_BLOCK_BYTES", block):
            manifest = partition_dataset(src, m, out, dim=dim)
        parts, want = per_line_split(src, m, dim)
        assert [(out / p.path).read_bytes() for p in manifest.partitions] == parts
        assert manifest == want
        assert DatasetManifest.load(out / "manifest.txt") == want

    @pytest.mark.parametrize("data", [
        b"",
        b"\r",
        b"1 1:1\r\n1 2:1\r\r\n1 3:1\r",
        b"1 1:1\n\r",
        b"1 1:1\r1 2:1\n",
        b"\xff\xfe 1:1\n\x80\r\n",
        b"1 " + b" ".join(b"%d:1" % i for i in range(1, 200)) + b"\n1 1:1",
    ])
    def test_edge_files_equal_per_line_split(self, tmp_path, monkeypatch, data):
        src = tmp_path / "data.txt"
        src.write_bytes(data)
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 16)  # the long line spans many blocks
        for m in (1, 2, 3):
            manifest = partition_dataset(src, m, tmp_path / f"out{m}")
            parts, want = per_line_split(src, m)
            assert [(tmp_path / f"out{m}" / p.path).read_bytes() for p in manifest.partitions] == parts
            assert manifest == want
