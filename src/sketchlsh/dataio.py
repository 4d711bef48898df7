"""Dataset ingestion, partitioning, and flat config files.

Input datasets are svmlight-style text: one record per line, an optional
leading label, then ``index:value`` features with 1-based strictly
increasing indices. Feature values are treated purely as presence
indicators; the engine works on binary vectors.

Vector ids are global line offsets in the original file, so re-partitioning
never renumbers anything: partition r of m holds lines r, r+m, r+2m, ...
"""

from __future__ import annotations

import hashlib
import io
import os
from contextlib import ExitStack
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .core import (
    NULL_ID,
    ConfigError,
    DatasetPartition,
    EmptyVectorError,
    InvalidVectorError,
    LshConfig,
    SketchLshError,
    SparseRows,
    SparseVector,
)

# Bytes per array pass of the record parser: bounds its scratch arrays. One
# pass over a whole 3.4 MB partition raised peak RSS by 39 MB; 2^16-byte
# passes raised it by nothing measurable. At 2^17 bytes the per-byte arrays
# reach glibc's 128 KiB mmap threshold, so each one is mapped and unmapped
# again per block: with the threshold held there, parsing took 2.3x the CPU
# time of 2^16-byte blocks.
_BLOCK_BYTES = 1 << 16
# Longest index the array pass reads itself; 18 digits always fit in int64.
_MAX_DIGITS = 18


class RecordParseError(SketchLshError, ValueError):
    """A malformed input record; carries the 0-based line number if known."""

    def __init__(self, message: str, line_no: int | None = None):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{message}")
        self.line_no = line_no


def _utf8_text(line: str, line_no: int | None = None) -> str:
    """``line`` itself, or :class:`RecordParseError` if its bytes were not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise RecordParseError("not UTF-8 text", line_no) from None
    return line


def parse_record(
    line: str, dim: int | None = None, line_no: int | None = None
) -> tuple[str | None, SparseVector]:
    """Parse one svmlight-style record into (label, vector).

    Indices are 1-based in the input and normalized to 0-based; values are
    ignored (presence only). Raises :class:`RecordParseError` for malformed
    tokens, non-increasing indices, or an index at or above ``dim``; raises
    :class:`EmptyVectorError` for a record with no features.
    """
    tokens = line.split()
    if not tokens:
        raise EmptyVectorError(f"line {line_no}: blank record" if line_no is not None else "blank record")
    label: str | None = None
    start = 0
    if ":" not in tokens[0]:
        label = tokens[0]
        start = 1
    indices: list[int] = []
    prev = -1
    for tok in tokens[start:]:
        idx_s, sep, _val = tok.partition(":")
        if not sep:
            raise RecordParseError(f"feature token {tok!r} is not index:value", line_no)
        try:
            idx = int(idx_s)
        except ValueError:
            raise RecordParseError(f"feature index {idx_s!r} is not an integer", line_no) from None
        if idx < 1:
            raise RecordParseError(f"feature index {idx} must be >= 1", line_no)
        zero_based = idx - 1
        if zero_based <= prev:
            raise RecordParseError(
                f"feature indices must be strictly increasing (saw {idx})", line_no
            )
        if dim is not None and zero_based >= dim:
            raise RecordParseError(
                f"feature index {idx} exceeds dimensionality {dim}", line_no
            )
        indices.append(zero_based)
        prev = zero_based
    if not indices:
        raise EmptyVectorError(
            f"line {line_no}: record has no features" if line_no is not None else "record has no features"
        )
    effective_dim = dim if dim is not None else indices[-1] + 1
    # SparseVector converts the list itself, so an index past 64 bits raises
    # InvalidVectorError rather than numpy's OverflowError
    return label, SparseVector(indices=indices, dim=effective_dim)


def format_record(v: SparseVector, label: str = "1") -> str:
    """Inverse of :func:`parse_record` (values written as 1)."""
    return " ".join([label] + [f"{int(i) + 1}:1" for i in v.indices])


def _line_blocks(f: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``f`` in blocks of whole lines, about ``_BLOCK_BYTES``
    each: a block ends with a newline, except a last line that has none."""
    pending: list[bytes] = []
    while chunk := f.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        yield b"".join(pending)
        pending = [chunk[cut:]]
    if any(pending):
        yield b"".join(pending)


def _scan_block(block: bytes, dim: int | None) -> tuple[np.ndarray, ...]:
    """One array pass over a block of whole lines.

    Lines split at ``\n`` and lose a trailing run of ``\r``, as in
    :func:`partition_dataset`. A line is *clean* when it is ASCII without
    control bytes other than tab, its first token is a label (no ``:``) or a
    feature, every other token is ``digits:value`` with one ``:`` and 1-18
    digits, and its indices are at least 1, increase and stay within
    ``dim``. Anything else is flagged for :func:`parse_record`, which is the
    reference: on clean lines the two agree.

    Returns the line spans ``(starts, ends)`` without the newline, the
    flagged mask, the index count of each line (0 when flagged) and the
    zero-based indices of the clean lines, back to back.
    """
    b = np.frombuffer(block, dtype=np.uint8)
    n = b.size
    newline = b == 10
    ends = np.flatnonzero(newline)
    if not block.endswith(b"\n"):
        ends = np.append(ends, n)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # bytes between tokens: newlines, spaces, tabs and a line's trailing \r run
    gap = newline | (b == 32) | (b == 9)
    cr = b == 13
    if cr.any():
        not_cr = np.minimum.accumulate(np.where(cr, n, np.arange(n))[::-1])[::-1]
        gap |= cr & np.append(newline, True)[not_cr]
    flagged = np.zeros(ends.size, dtype=bool)
    bad = ((b < 32) | (b > 126)) & ~gap
    flagged[np.searchsorted(ends, np.flatnonzero(bad), side="right")] = True

    edge = np.diff((~gap).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    tok_start = np.flatnonzero(edge == 1)
    tok_line = np.searchsorted(ends, tok_start, side="right")
    colons = np.flatnonzero(b == 58)
    colon_tok = np.searchsorted(tok_start, colons, side="right") - 1
    n_colons = np.bincount(colon_tok, minlength=tok_start.size)
    first = np.ones(tok_start.size, dtype=bool)
    first[1:] = tok_line[1:] != tok_line[:-1]
    # a first token without ':' is the label; every other token needs one ':'
    flagged[tok_line[(n_colons != 1) & ~(first & (n_colons == 0))]] = True

    one = n_colons[colon_tok] == 1
    colon, feat = colons[one], colon_tok[one]
    line = tok_line[feat]
    start = tok_start[feat]
    width = colon - start
    ok = (width >= 1) & (width <= _MAX_DIGITS)
    width[~ok] = 0
    value = np.zeros(feat.size, dtype=np.int64)
    for k in range(int(width.max(initial=0))):
        live = k < width
        digit = b[np.minimum(start + k, n - 1)].astype(np.int64) - 48
        ok &= ~live | ((digit >= 0) & (digit <= 9))
        value = np.where(live, value * 10 + digit, value)
    ok &= value >= 1
    if dim is not None:
        ok &= value <= dim
    later = line[1:] == line[:-1]
    ok[1:] &= ~later | (value[1:] > value[:-1])
    flagged[line[~ok]] = True
    flagged |= np.bincount(line, minlength=ends.size) == 0
    keep = ~flagged[line]
    counts = np.bincount(line[keep], minlength=ends.size)
    return starts, ends, flagged, counts, (value[keep] - 1).astype(np.uint64)


def _parse_block(
    block: bytes, dim: int | None, first: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """Parse a block of whole lines numbered from ``first``.

    Clean lines come from :func:`_scan_block`; each flagged line goes, as
    text, through :func:`parse_record`. Returns the block's line count, the
    numbers of the kept lines, their index counts, their indices back to
    back, and (line number, message) for each rejected line, in line order.
    Messages, not exceptions, so no traceback keeps the block alive.
    """
    starts, ends, flagged, counts, indices = _scan_block(block, dim)
    rejected = []
    if flagged.any():
        row_start = np.cumsum(counts) - counts
        pieces, cut = [], 0
        for i in np.flatnonzero(flagged).tolist():
            no = first + i
            line = block[starts[i] : ends[i]].decode("utf-8", errors="surrogateescape").rstrip("\r")
            try:
                got = parse_record(_utf8_text(line, no), dim, no)[1].indices
            except SketchLshError as exc:
                rejected.append((no, str(exc)))
                continue
            pieces += [indices[cut : row_start[i]], got]
            cut = row_start[i]
            counts[i] = got.size
            flagged[i] = False
        indices = np.concatenate(pieces + [indices[cut:]])
    kept = np.flatnonzero(~flagged)
    return ends.size, first + kept, counts[kept], indices, rejected


def _parse_lines(
    f: BinaryIO, dim: int | None
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """:func:`_parse_block` over every block of ``f``: the line count, the
    numbers of the kept lines, their index counts, their indices back to
    back, and (line number, message) for each rejected line."""
    parsed = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.uint64))]
    rejected = []
    first = 0
    for block in _line_blocks(f):
        count, *columns, bad = _parse_block(block, dim, first)
        parsed.append(columns)
        rejected += bad
        first += count
    return (first, *(np.concatenate(column) for column in zip(*parsed)), rejected)


def parse_query_file(path, dim: int | None = None) -> list[tuple[int, SparseVector]]:
    """The records of a query file as (line number, vector) pairs.

    The file must be UTF-8. Blank lines are skipped; the first malformed
    line raises its :func:`parse_record` error. Without ``dim`` each vector
    is as wide as its largest index.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise RecordParseError(f"query file {path} is not UTF-8 text: {exc}") from None

    # the lines hold no separator of splitlines, so joined by \n they keep their numbers
    _, kept, counts, indices, rejected = _parse_lines(io.BytesIO("\n".join(lines).encode()), dim)
    for line_no, _ in rejected:
        if lines[line_no].strip():
            parse_record(lines[line_no], dim, line_no)  # raises the line's own error
    bounds = np.cumsum(counts).tolist()
    indices.setflags(write=False)  # read-only splits: each vector keeps its own as it is
    return [
        (line_no, SparseVector(row, dim if dim is not None else int(row[-1]) + 1))
        for line_no, row in zip(kept.tolist(), np.split(indices, bounds[:-1]))
    ]


@dataclass(frozen=True)
class PartitionInfo:
    path: str  # relative to the manifest directory
    records: int
    offset: int  # global line offset of the partition's first record


@dataclass(frozen=True)
class DatasetManifest:
    """Describes one partitioned dataset: sizes, offsets, content checksum.

    Record ids reconstruct as ``offset + j * m`` for the j-th line of a
    partition, which keeps ids globally unique and stable across
    re-partitionings.
    """

    total: int
    dim: int
    m: int
    checksum: str
    partitions: tuple[PartitionInfo, ...]

    def save(self, path) -> None:
        lines = [
            f"total={self.total}",
            f"dim={self.dim}",
            f"m={self.m}",
            f"checksum={self.checksum}",
        ]
        for i, p in enumerate(self.partitions):
            lines.append(f"partition.{i}.path={p.path}")
            lines.append(f"partition.{i}.records={p.records}")
            lines.append(f"partition.{i}.offset={p.offset}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        kv = load_config(path)

        def field(key: str, convert=int):
            try:
                return convert(kv[key])
            except (KeyError, ValueError):
                raise ConfigError(f"manifest key {key} is missing or not an integer") from None

        m = field("m")
        parts = tuple(
            PartitionInfo(
                path=field(f"partition.{i}.path", str),
                records=field(f"partition.{i}.records"),
                offset=field(f"partition.{i}.offset"),
            )
            for i in range(m)
        )
        if m < 1 or sorted(p.offset for p in parts) != list(range(m)):
            raise ConfigError(f"manifest partition offsets are not a permutation of 0..m-1, m={m}")
        total, dim = field("total"), field("dim")
        if dim < 1:
            raise ConfigError(f"manifest dim={dim} must be >= 1")
        if total != sum(p.records for p in parts):
            raise ConfigError(f"manifest total={total} is not the sum of its partitions' records")
        return cls(total=total, dim=dim, m=m, checksum=field("checksum", str), partitions=parts)


def partition_dataset(input_path, m: int, out_dir, dim: int | None = None) -> DatasetManifest:
    """Round-robin split of an input file into m partition files plus manifest.

    Line i goes to partition (i mod m) as its own bytes: split at ``\n``,
    without its trailing run of ``\r``, ended by ``\n``. So partition
    contents are byte-stable and ids stay the global line offsets. The
    input is read once, in the blocks of whole lines the record parser
    reads: each block updates the checksum, widens the inferred dimension
    when ``dim`` is not given (1 + the largest parseable feature index) and
    is appended line by line to the partition files. Any IO failure removes
    the partial output files before re-raising.
    """
    if m < 1:
        raise ConfigError("partition count m must be >= 1")
    if dim is not None and dim < 1:
        raise ConfigError(f"dim={dim} must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"part-{r:05d}.txt" for r in range(m)]
    manifest_path = out / "manifest.txt"
    hasher = hashlib.sha256()
    counts = [0] * m
    max_index = -1
    try:
        with open(input_path, "rb") as raw, ExitStack() as stack:
            files = [stack.enter_context(open(p, "wb")) for p in paths]
            for block in _line_blocks(raw):
                hasher.update(block)
                if dim is None:
                    # rejected lines widen nothing; they are still distributed verbatim
                    indices = _parse_block(block, None, 0)[3]
                    if indices.size:
                        max_index = max(max_index, int(indices.max()))
                lines = block.split(b"\n")
                if not lines[-1]:
                    lines.pop()  # the block ends with a newline
                if b"\r" in block:
                    lines = [line.rstrip(b"\r") for line in lines]
                first = sum(counts)  # the global number of the block's first line
                for r, f in enumerate(files):
                    mine = lines[(r - first) % m :: m]
                    if mine:
                        f.write(b"\n".join(mine) + b"\n")
                        counts[r] += len(mine)
        eff_dim = dim if dim is not None else max(max_index + 1, 1)
        manifest = DatasetManifest(
            total=sum(counts),
            dim=eff_dim,
            m=m,
            checksum="sha256:" + hasher.hexdigest(),
            partitions=tuple(
                PartitionInfo(path=p.name, records=counts[r], offset=r)
                for r, p in enumerate(paths)
            ),
        )
        manifest.save(manifest_path)
        return manifest
    except Exception:
        for p in paths + [manifest_path]:
            try:
                os.unlink(p)
            except OSError:
                pass
        raise


@dataclass(frozen=True)
class RecordIssue:
    vector_id: int
    line_no: int
    message: str


def load_partition(
    manifest: DatasetManifest, manifest_dir, rank: int
) -> tuple[DatasetPartition, list[RecordIssue]]:
    """Load one partition's vectors; malformed records, lines that are not
    UTF-8 among them, become issues, not aborts. A ``rank`` outside
    ``0..manifest.m - 1`` is a :class:`ConfigError`, and a file whose line
    count is not the manifest's record count a :class:`RecordParseError`.

    The file is parsed in array passes over blocks of whole lines; only the
    lines a pass cannot prove clean go through :func:`parse_record`, one by
    one, so ids, vectors and issues (one per line the parser returns as
    rejected) are those of parsing every line with it.
    """
    if not 0 <= rank < manifest.m:
        raise ConfigError(f"rank {rank} is outside the manifest's ranks 0..{manifest.m - 1}")
    info = manifest.partitions[rank]
    path = Path(manifest_dir) / info.path
    with open(path, "rb") as f:
        n_lines, lines, counts, indices, rejected = _parse_lines(f, manifest.dim)
    if n_lines != info.records:
        raise RecordParseError(f"{path} holds {n_lines} lines; the manifest says {info.records}")
    # ids rise with the line number from offset ≥ 0, so the last bounds them all
    last = info.offset + int(lines[-1]) * manifest.m if lines.size else 0
    if last >= NULL_ID:
        raise InvalidVectorError(f"vector id {last} outside the admissible range")
    ids = lines.astype(np.uint64) * np.uint64(manifest.m) + np.uint64(info.offset)
    rows = SparseRows(np.concatenate(([0], np.cumsum(counts))), indices, manifest.dim)
    issues = [RecordIssue(info.offset + j * manifest.m, j, message) for j, message in rejected]
    return DatasetPartition.from_rows(rank, ids, rows), issues


# -- flat key=value config -----------------------------------------------------------


def _text_lines(path) -> list[str]:
    """The lines of a config-style file; bytes that are not UTF-8 are a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def load_config(path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"malformed config line: {raw!r}")
        out[key.strip()] = value.strip()
    return out


_CONFIG_KEYS = tuple(f.name for f in fields(LshConfig))


def lsh_config_from_mapping(kv: dict[str, str], **overrides) -> LshConfig:
    """Build an LshConfig from file keys plus explicit overrides.

    Precedence: override > file value > dataclass default.
    """
    kwargs = {}
    for key in _CONFIG_KEYS:
        if key in kv:
            try:
                kwargs[key] = int(kv[key], 0)
            except ValueError:
                raise ConfigError(f"config key {key} must be an integer") from None
    for key, value in overrides.items():
        if value is not None:
            kwargs[key] = value
    return LshConfig(**kwargs)


def save_lsh_config(config: LshConfig, path) -> None:
    lines = [f"{key}={getattr(config, key)}" for key in _CONFIG_KEYS]
    Path(path).write_text("\n".join(lines) + "\n")


def read_hosts_file(path) -> list[tuple[str, int]]:
    """Cluster membership: one ``rank host:port`` or ``host:port`` line per
    rank, each at an address of its own. A rank column must number the lines
    0, 1, 2, ... in order; comments and blank lines are not counted."""
    members: list[tuple[str, int]] = []
    for raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) > 2:
            raise ConfigError(f"malformed host line (want [rank] host:port): {raw!r}")
        if len(parts) == 2 and not (
            parts[0].isascii() and parts[0].isdecimal() and int(parts[0]) == len(members)
        ):
            raise ConfigError(f"malformed host line (its rank must be {len(members)}): {raw!r}")
        host, _, port_s = parts[-1].rpartition(":")
        port = int(port_s) if port_s.isdecimal() and len(port_s) <= 5 else 0
        if not host or not 0 < port < 65536:
            raise ConfigError(f"malformed host line (want host:port, port 1..65535): {raw!r}")
        if (host, port) in members:
            rank = members.index((host, port))
            raise ConfigError(f"malformed host line (rank {rank} holds its address): {raw!r}")
        members.append((host, port))
    return members
