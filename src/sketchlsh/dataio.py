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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .core import (
    ConfigError,
    DatasetPartition,
    EmptyVectorError,
    LshConfig,
    SketchLshError,
    SparseVector,
)

DEFAULT_BLOCK_SIZE = 4 << 20


class RecordParseError(SketchLshError, ValueError):
    """A malformed input record; carries the 0-based line number if known."""

    def __init__(self, message: str, line_no: int | None = None):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{message}")
        self.line_no = line_no


class BlockLineReader:
    """Iterate lines of a text file via large sequential block reads.

    Reads ``block_size`` bytes at a time and splits lines itself, so disk
    access stays sequential regardless of record size. ``blocks_read``
    exposes how many raw reads were issued. Bytes that are not UTF-8 decode
    as lone surrogates (``surrogateescape``), so a line keeps its original
    bytes; :func:`_utf8_text` tells such a line apart.
    """

    def __init__(self, path, block_size: int = DEFAULT_BLOCK_SIZE):
        self.path = Path(path)
        self.block_size = block_size
        self.blocks_read = 0

    def __iter__(self) -> Iterator[str]:
        remainder = b""
        with open(self.path, "rb") as f:
            while True:
                block = f.read(self.block_size)
                self.blocks_read += 1
                if not block:
                    break
                block = remainder + block
                lines = block.split(b"\n")
                remainder = lines.pop()
                for raw in lines:
                    yield raw.decode("utf-8", errors="surrogateescape").rstrip("\r")
        if remainder:
            yield remainder.decode("utf-8", errors="surrogateescape").rstrip("\r")


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
        return cls(
            total=field("total"),
            dim=field("dim"),
            m=m,
            checksum=field("checksum", str),
            partitions=parts,
        )


def partition_dataset(
    input_path,
    m: int,
    out_dir,
    dim: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> DatasetManifest:
    """Round-robin split of an input file into m partition files plus manifest.

    Line i goes verbatim to partition (i mod m), so partition contents are
    byte-stable and ids stay the global line offsets. When ``dim`` is not
    given it is inferred as 1 + the largest parseable feature index. Any IO
    failure removes the partial output files before re-raising.
    """
    if m < 1:
        raise ConfigError("partition count m must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"part-{r:05d}.txt" for r in range(m)]
    manifest_path = out / "manifest.txt"
    hasher = hashlib.sha256()
    counts = [0] * m
    max_index = -1
    reader = BlockLineReader(input_path, block_size=block_size)
    try:
        with open(input_path, "rb") as raw:
            while True:
                chunk = raw.read(block_size)
                if not chunk:
                    break
                hasher.update(chunk)
        # surrogateescape writes a line that is not UTF-8 back as its own bytes
        files = [open(p, "w", encoding="utf-8", errors="surrogateescape") for p in paths]
        try:
            for i, line in enumerate(reader):
                r = i % m
                files[r].write(line + "\n")
                counts[r] += 1
                if dim is None:
                    try:
                        _, vec = parse_record(_utf8_text(line))
                        max_index = max(max_index, int(vec.indices[-1]))
                    except SketchLshError:
                        pass  # malformed lines are still distributed verbatim
        finally:
            for f in files:
                f.close()
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
    UTF-8 among them, become issues, not aborts."""
    info = manifest.partitions[rank]
    path = Path(manifest_dir) / info.path
    vectors = []
    issues = []
    for j, line in enumerate(BlockLineReader(path)):
        vid = info.offset + j * manifest.m
        try:
            _, vec = parse_record(_utf8_text(line, j), dim=manifest.dim, line_no=j)
            vectors.append((vid, vec))
        except SketchLshError as exc:
            issues.append(RecordIssue(vector_id=vid, line_no=j, message=str(exc)))
    return DatasetPartition(node_id=rank, vectors=vectors), issues


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


_CONFIG_KEYS = (
    "hashes_per_table",
    "num_tables",
    "table_range",
    "sketch_rows",
    "sketch_cols",
    "master_seed",
    "top_k",
)


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
    """Cluster membership: one ``rank host:port`` or ``host:port`` line per rank."""
    members: list[tuple[str, int]] = []
    for raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        hostport = parts[-1]
        host, sep, port_s = hostport.rpartition(":")
        port = int(port_s) if port_s.isdecimal() and len(port_s) <= 5 else 0
        if not sep or not 0 < port < 65536:
            raise ConfigError(f"malformed host line (want host:port, port 1..65535): {raw!r}")
        members.append((host, port))
    return members
