"""Property tests of the parsers of untrusted files and wire payloads.

Every call on damaged or random input must either return a value or raise
a :class:`SketchLshError`; an index that loads must then serve probes in
both aggregation modes without raising.
"""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchlsh.cli import main
from sketchlsh.cluster import (
    _HEADER,
    FRAME_MAGIC,
    CollectiveError,
    ExactCounts,
    Frame,
    TcpTransport,
    TransportError,
    _decode_sketches,
)
from sketchlsh.core import (
    MAX_TABLES,
    NULL_ID,
    DatasetPartition,
    LshConfig,
    SketchLshError,
    SparseVector,
)
from sketchlsh.dataio import (
    DatasetManifest,
    format_record,
    parse_record,
    read_hosts_file,
    save_lsh_config,
)
from sketchlsh.index import _HEADER as INDEX_HEADER
from sketchlsh.index import IndexFileError, NodeIndex, preprocess
from sketchlsh.sketch import TopkapiSketch
from sketchlsh.synthetic import random_sparse_vectors

from oracles import (
    cell_bounds,
    count_maps,
    count_payload,
    dense_record,
    exact_count_map,
    replayed_candidates,
)

CFG = LshConfig(hashes_per_table=2, num_tables=4, table_range=1 << 8, top_k=3, master_seed=23)
FUZZ = settings(max_examples=200, deadline=None, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def blob_vectors() -> list[SparseVector]:
    """40 vectors, the last 4 copies of the first 4."""
    vecs = random_sparse_vectors(np.random.default_rng(5), 36, 512, 10)
    return vecs + vecs[:4]


@pytest.fixture(scope="module")
def blob(workdir):
    """A saved version-4 index of :func:`blob_vectors` with ids 0..39, so
    that some buckets hold several ids."""
    path = workdir / "good.bin"
    preprocess(DatasetPartition(0, list(enumerate(blob_vectors()))), CFG).save(path)
    return path.read_bytes()


def load_and_probe(path, data: bytes, batch: np.ndarray | None = None) -> None:
    """Load ``data`` as an index, if it loads, and probe it with ``batch``
    or, by default, with stored and random addresses: the sketch stack must
    equal the replay oracle's and keep the majority-vote bounds of every
    cell against the exact counts, which must equal the oracle's too."""
    path.write_bytes(data)
    try:
        index = NodeIndex.load(path, CFG)
    except SketchLshError:
        return
    if batch is None:
        rng = np.random.default_rng(len(data))
        # stored addresses (buckets that hold ids) and random ones, per table
        stored = [tb.addrs[:3] for tb in index.tables]
        width = max(3, max(a.size for a in stored))
        batch = rng.integers(0, CFG.table_range, size=(width + 2, CFG.num_tables), dtype=np.uint64)
        for t, addrs in enumerate(stored):
            batch[: addrs.size, t] = addrs
    stack = index.local_candidates(batch)
    assert len(stack) == len(batch) and stack == replayed_candidates(index, batch)
    counts = index.exact_candidates(batch)
    assert len(counts) == len(batch)
    assert count_maps(counts) == [exact_count_map(index, row) for row in batch]
    cell_bounds(stack, counts, index.row_seeds)


@FUZZ
@given(cut=st.integers(min_value=0))
def test_truncated_index(workdir, blob, cut):
    load_and_probe(workdir / "cut.bin", blob[: cut % len(blob)])


@FUZZ
@given(bits=st.lists(st.integers(min_value=0), min_size=1, max_size=4))
def test_bit_flipped_index(workdir, blob, bits):
    data = bytearray(blob)
    for bit in bits:
        bit %= 8 * len(data)
        data[bit // 8] ^= 1 << (bit % 8)
    load_and_probe(workdir / "flip.bin", bytes(data))


@FUZZ
@given(tail=st.binary(max_size=600), keep=st.integers(min_value=0, max_value=80))
def test_random_bytes_after_a_valid_prefix(workdir, blob, tail, keep):
    # keeping the header (40 bytes) gets the random bytes past the magic,
    # version and fingerprint checks into the column reader
    load_and_probe(workdir / "random.bin", blob[:keep] + tail)


@pytest.fixture(scope="module")
def heavy_blob(workdir):
    """A saved version-4 index of 80 vectors, 60 of them copies of one, so
    that every table holds a bucket of more ids than a sketch has cells."""
    rng = np.random.default_rng(9)
    vecs = random_sparse_vectors(rng, 20, 512, 10)
    vecs += vecs[:1] * 60
    path = workdir / "heavy.bin"
    index = preprocess(DatasetPartition(0, list(enumerate(vecs))), CFG)
    assert np.unique(index.keys[index.heavy_pos] // CFG.table_range).size == CFG.num_tables
    index.save(path)
    return path.read_bytes()


@FUZZ
@given(bits=st.lists(st.integers(min_value=0), min_size=1, max_size=4))
def test_bit_flipped_heavy_index(workdir, heavy_blob, bits):
    data = bytearray(heavy_blob)
    for bit in bits:
        bit %= 8 * len(data)
        data[bit // 8] ^= 1 << (bit % 8)
    load_and_probe(workdir / "flip-heavy.bin", bytes(data))


@FUZZ
@given(table=st.integers(0, CFG.num_tables - 1), pair=st.tuples(st.integers(0), st.integers(0)))
def test_repeated_id_in_a_heavy_bucket(workdir, heavy_blob, table, pair):
    # one row of a heavy bucket is written over another row of the same
    # bucket, which then holds that row's id twice
    path = workdir / "repeat.bin"
    path.write_bytes(heavy_blob)
    index = NodeIndex.load(path, CFG)
    in_table = index.keys[index.heavy_pos] // CFG.table_range == table
    pos = int(index.heavy_pos[in_table][0])
    start, size = int(index.offsets[pos]), int(index.offsets[pos + 1] - index.offsets[pos])
    src, dst = (start + i % size for i in pair)
    if src == dst:
        return
    # the 40-byte header, then the ids, keys, offsets and rows columns
    rows_at = 40 + index.ids.nbytes + index.keys.nbytes + index.offsets.nbytes
    src, dst = rows_at + 4 * src, rows_at + 4 * dst
    data = bytearray(heavy_blob)
    data[dst : dst + 4] = heavy_blob[src : src + 4]
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFileError, match="rows do not rise within a bucket of more than 48 ids"):
        NodeIndex.load(path, CFG)


@FUZZ
@given(
    table=st.integers(0, CFG.num_tables - 1),
    bucket=st.integers(0),
    pair=st.tuples(st.integers(0), st.integers(0)),
)
def test_repeated_row_in_a_light_bucket(workdir, blob, table, bucket, pair):
    # one row of a bucket of at most W·B ids is written over another row of
    # the same bucket, which then holds that row's id twice: the index still
    # loads, and a repeat in one cell takes the counter rule's slow path
    path = workdir / "repeat-light.bin"
    path.write_bytes(blob)
    index = NodeIndex.load(path, CFG)
    sizes = np.diff(index.offsets.astype(np.int64))
    shared = np.flatnonzero((index.keys // CFG.table_range == table) & (sizes > 1))
    pos = int(shared[bucket % shared.size])
    start, size = int(index.offsets[pos]), int(sizes[pos])
    src, dst = (start + i % size for i in pair)
    if src == dst:
        return
    rows_at = INDEX_HEADER.size + index.ids.nbytes + index.keys.nbytes + index.offsets.nbytes
    src, dst = rows_at + 4 * src, rows_at + 4 * dst
    data = bytearray(blob)
    data[dst : dst + 4] = blob[src : src + 4]
    path.write_bytes(bytes(data))
    NodeIndex.load(path, CFG)  # accepted: nothing checks the rows of a light bucket
    # every query finds the damaged bucket in its table, and a stored bucket in the others
    batch = np.array([[tb.addrs[0] for tb in index.tables]] * 2, dtype=np.uint64)
    batch[:, table] = int(index.keys[pos]) - table * CFG.table_range
    load_and_probe(path, bytes(data), batch)


def test_one_id_under_two_rows_is_a_data_error(workdir, blob):
    # row 5's id becomes row 0's id, 0: the ids no longer strictly increase
    data = bytearray(blob)
    struct.pack_into("<Q", data, INDEX_HEADER.size + 8 * 5, 0)
    ranks = workdir / "twice"
    ranks.mkdir()
    path = ranks / "index-00000.bin"
    path.write_bytes(bytes(data))
    with pytest.raises(IndexFileError, match="ids do not strictly increase"):
        NodeIndex.load(path, CFG)
    # the CLI reports it as a data error
    save_lsh_config(CFG, ranks / "config.txt")
    queries = ranks / "q.txt"
    queries.write_text(format_record(blob_vectors()[5]) + "\n")
    assert main([
        "query", "--indexes", str(ranks), "--queries", str(queries),
        "--world-size", "1", "--mode", "exact", "--out", str(ranks / "r.txt"),
    ]) == 3


@pytest.mark.parametrize("count", [0, 1])
def test_tiny_index_probed_where_nothing_is(workdir, count):
    index = preprocess(DatasetPartition(0, list(enumerate(blob_vectors()[:count]))), CFG)
    path = workdir / f"tiny-{count}.bin"
    index.save(path)
    load_and_probe(path, path.read_bytes())
    # per table, one past the address of its only bucket, if it has one
    miss = [(int(tb.addrs[0]) + 1 if tb.addrs.size else 0) % CFG.table_range for tb in index.tables]
    batch = np.array([miss] * 3, dtype=np.uint64)
    for probed in (index, NodeIndex.load(path, CFG)):
        counts = probed.exact_candidates(batch)
        assert counts.indptr.tolist() == [0] * 4 and counts.indptr.dtype == np.int64
        assert counts.ids.size == 0 and counts.ids.dtype == counts.counts.dtype == np.uint64
        assert probed.local_candidates(batch) == probed.empty_sketch(3)


TEXT = st.text(st.characters(codec="utf-8"), max_size=40)
PORTS = st.one_of(st.integers(-5, 70_000).map(str), TEXT)
HOST_PORTS = st.builds(lambda h, p: f"{h}:{p}", TEXT, PORTS)
RANKS = st.one_of(st.integers(-1, 6).map(str), TEXT)
HOST_LINES = st.one_of(
    TEXT, HOST_PORTS, st.builds(lambda r, hp: f"{r} {hp}", RANKS, HOST_PORTS)
)


@FUZZ
@given(lines=st.lists(HOST_LINES, max_size=6))
def test_hosts_file(workdir, lines):
    path = workdir / "hosts.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        members = read_hosts_file(path)
    except SketchLshError:
        return
    assert all(host and 0 < port < 65536 for host, port in members)
    assert len(set(members)) == len(members)  # no two ranks share an address
    # one member per listed line, and a rank column numbers the lines in order
    listed = [
        ln.split() for ln in path.read_text(encoding="utf-8").splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    assert len(members) == len(listed)
    for rank, tokens in enumerate(listed):
        assert len(tokens) == 1 or (len(tokens) == 2 and int(tokens[0]) == rank)


MANIFEST_KEYS = st.sampled_from(
    ["m", "total", "dim", "checksum"]
    + [f"partition.{i}.{f}" for i in range(3) for f in ("path", "records", "offset")]
)
VALUES = st.one_of(st.integers(-2, 4).map(str), TEXT)
MANIFEST_LINES = st.one_of(TEXT, st.builds(lambda k, v: f"{k}={v}", MANIFEST_KEYS, VALUES))


@FUZZ
@given(lines=st.lists(MANIFEST_LINES, max_size=16))
def test_manifest(workdir, lines):
    path = workdir / "manifest.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        manifest = DatasetManifest.load(path)
    except SketchLshError:
        return
    assert len(manifest.partitions) == max(manifest.m, 0)


@FUZZ
@given(data=st.binary(max_size=200))
def test_config_files_of_random_bytes(workdir, data):
    path = workdir / "bytes.txt"
    path.write_bytes(data)
    for parse in (read_hosts_file, DatasetManifest.load):
        try:
            parse(path)
        except SketchLshError:
            pass


def damaged(data: bytes, cut: int, bits: list[int]) -> bytes:
    """``data`` cut to ``cut % (len + 1)`` bytes with ``bits`` flipped."""
    out = bytearray(data[: cut % (len(data) + 1)])
    for bit in bits:
        if out:
            bit %= 8 * len(out)
            out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


DAMAGE = dict(
    cut=st.integers(min_value=0),
    bits=st.lists(st.integers(min_value=0), max_size=3),
)
COUNT_MAPS = [{}, {5: 2, (1 << 53) + 1: 3, (1 << 64) - 2: 1}, {i: i + 1 for i in range(6)}]
ENTRY_COUNTS = st.one_of(st.integers(0, 9), st.integers(0, (1 << 64) - 1))


@FUZZ
@given(
    expected=st.integers(0, 4),
    random=st.binary(max_size=200),
    lengths=st.lists(ENTRY_COUNTS, min_size=3, max_size=3),
    **DAMAGE,
)
def test_count_payload(expected, random, lengths, cut, bits):
    good = count_payload(COUNT_MAPS)
    # entry counts rewritten: they may overrun the payload or not add up to it
    recounted = struct.pack("<3Q", *lengths) + good[24:]
    for payload, n in ((random, expected), (damaged(good, cut, bits), 3), (recounted, 3)):
        try:
            counts = ExactCounts.from_bytes(payload, n)
        except CollectiveError:
            continue
        assert len(counts) == n and counts.to_bytes() == payload
        assert int(counts.counts.max(initial=0)) <= MAX_TABLES
        maps = count_maps(counts)
        assert all(list(m) == sorted(m) and min(m.values(), default=1) >= 1 for m in maps)
        assert sum(map(len, maps)) == counts.ids.size
        if payload == good:
            assert maps == COUNT_MAPS


@pytest.fixture(scope="module")
def sketch_stack():
    """A 3-member stack of 2 x 3 sketches with a count-0 cell of a real id,
    an id past 2^63 and a count at the bound, and some null cells."""
    stack = TopkapiSketch(2, 3, np.array([7, 11], dtype=np.uint64), members=3)
    stack.insert_many(np.arange(20, dtype=np.uint64), np.arange(20) % 3)
    stack.ids[0, 0, :2], stack.counts[0, 0, :2] = [NULL_ID, NULL_ID], 0
    stack.ids[1, 1, 0], stack.counts[1, 1, 0] = (1 << 63) + 3, MAX_TABLES
    assert 0 in stack.counts[stack.ids != np.uint64(NULL_ID)]
    return stack


@FUZZ
@given(members=st.integers(1, 4), random=st.binary(max_size=300), **DAMAGE)
def test_sketch_payload(sketch_stack, members, random, cut, bits):
    record = sketch_stack.to_bytes()
    # a record at the start of the bytes, re-encoded to the bytes it was
    # decoded from; the former dense layout is damaged input too
    damaged_ones = [damaged(r, cut, bits) for r in (record, dense_record(sketch_stack))]
    for payload in [random, *damaged_ones]:
        try:
            stack, end = TopkapiSketch.from_bytes(payload, members=members)
        except SketchLshError:
            continue
        assert len(stack) == members and end <= len(payload)
        assert stack.to_bytes() == payload[:end]
    # a reduce payload: the whole of it, no (null, c > 0) cell, every count
    # within the bound, and the bytes it was decoded from re-encoded
    for payload in (random, damaged(record, cut, bits)):
        try:
            stack = _decode_sketches(payload, members)
        except CollectiveError:
            continue
        assert len(stack) == members and int(stack.counts.max(initial=0)) <= MAX_TABLES
        assert not np.any((stack.ids == np.uint64(NULL_ID)) & (stack.counts > 0))
        assert stack.to_bytes() == payload
        if payload == record:
            # 3 members fill 18 of the mask's 24 bits, so the intact record
            # is also a 4-member record whose last member is empty
            n = len(sketch_stack)
            assert stack[:n] == sketch_stack and not stack.counts[n:].any()
            assert np.all(stack.ids[n:] == np.uint64(NULL_ID))


# indices around 2**64, where numpy's uint64 stops
INDICES = st.one_of(st.integers(-3, 1 << 20), st.integers((1 << 64) - 2, (1 << 64) + 2))
TOKENS = st.one_of(TEXT, st.builds(lambda i, v: f"{i}:{v}", INDICES, TEXT))


@FUZZ
@given(
    line=st.one_of(TEXT, st.lists(TOKENS, max_size=8).map(" ".join)),
    dim=st.one_of(st.none(), st.integers(1, 1 << 66)),
)
def test_parse_record(line, dim):
    try:
        _, vec = parse_record(line, dim=dim, line_no=3)
    except SketchLshError:
        return
    assert isinstance(vec, SparseVector) and vec.nnz > 0


U32, U64 = st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 64) - 1)
HEADERS = st.one_of(
    st.binary(min_size=_HEADER.size, max_size=_HEADER.size),
    st.builds(
        _HEADER.pack,
        st.one_of(st.just(FRAME_MAGIC), U32),
        U32,
        U64,
        U32,
        st.one_of(st.integers(0, 80), U64),  # payload_len: fits what follows, or huge
    ),
)


@FUZZ
@given(header=HEADERS, payload=st.binary(max_size=64), cut=st.integers(0, _HEADER.size))
def test_frame_header(header, payload, cut):
    # a 28-byte header (or a cut one), a short payload, then the peer closes
    transport = TcpTransport(0, [("127.0.0.1", 1)])  # a world of one opens no socket
    sender, receiver = socket.socketpair()
    with sender, receiver:
        receiver.settimeout(5.0)
        sender.sendall(header[: _HEADER.size - cut] + payload)
        sender.close()
        started = time.monotonic()
        try:
            frame = transport._read_frame(receiver, bytearray(), peer=1)
        except TransportError as exc:
            assert "timed out" not in str(exc)
            return
        finally:
            assert time.monotonic() - started < 2.0
    magic, ftype, batch_id, rnd, plen = _HEADER.unpack(header)
    assert cut == 0 and magic == FRAME_MAGIC and plen <= len(payload)
    assert frame == Frame(ftype, batch_id, rnd, payload[:plen])
