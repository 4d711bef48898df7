import numpy as np
import pytest

from sketchlsh.core import (
    ConfigError,
    DatasetPartition,
    InvalidVectorError,
    LshConfig,
    MAX_TABLES,
    NULL_ID,
    SparseRows,
    SparseVector,
)
from sketchlsh.dataio import lsh_config_from_mapping
from sketchlsh.index import _column_types, _table_bases
from sketchlsh.synthetic import random_sparse_vector, vector_with_swaps

from oracles import partition_vectors, reference_fingerprint


class TestSparseVector:
    def test_valid_construction(self):
        v = SparseVector(indices=[2, 6, 8], dim=10)
        assert v.nnz == 3
        assert v.indices.dtype == np.uint64
        assert v.indices.tolist() == [2, 6, 8]

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidVectorError):
            SparseVector(indices=[5, 3, 9], dim=10)

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidVectorError):
            SparseVector(indices=[3, 3, 9], dim=10)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidVectorError):
            SparseVector(indices=[3, 10], dim=10)

    def test_rejects_negative(self):
        with pytest.raises(InvalidVectorError):
            SparseVector(indices=[-1, 3], dim=10)

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidVectorError):
            SparseVector(indices=[0], dim=0)

    def test_uint64_decreasing_pair_rejected(self):
        # uint64 diff() wraps on decreasing pairs; the check must not rely on it
        with pytest.raises(InvalidVectorError):
            SparseVector(indices=np.array([5, 3], dtype=np.uint64), dim=10)

    def test_empty_is_representable(self):
        v = SparseVector(indices=[], dim=4)
        assert v.nnz == 0

    def test_equality(self):
        a = SparseVector([1, 2], 5)
        b = SparseVector([1, 2], 5)
        c = SparseVector([1, 2], 6)
        assert a == b
        assert a != c

    def test_immutable(self):
        v = SparseVector([1, 2], 5)
        with pytest.raises(ValueError):
            v.indices[0] = 3


class TestLshConfig:
    def test_defaults_derive_sketch_cols(self):
        cfg = LshConfig(top_k=8)
        assert cfg.sketch_cols == 32
        assert cfg.sketch_rows == 4

    def test_rejects_non_power_of_two_range(self):
        with pytest.raises(ConfigError):
            LshConfig(table_range=1000)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            LshConfig(hashes_per_table=0)
        with pytest.raises(ConfigError):
            LshConfig(num_tables=0)
        with pytest.raises(ConfigError):
            LshConfig(top_k=0)

    def test_table_count_fits_the_index_header(self):
        # the index header stores L as a u32, and the reduce's decoders bound
        # every peer count by it; construction builds no hash family. K = 1
        # keeps the densified hash's K·L bins below 2^32
        assert MAX_TABLES == 2**32 - 1
        assert LshConfig(hashes_per_table=1, num_tables=MAX_TABLES).num_tables == MAX_TABLES
        with pytest.raises(ConfigError, match="num_tables"):
            LshConfig(num_tables=MAX_TABLES + 1)
        with pytest.raises(ConfigError, match="num_tables"):
            lsh_config_from_mapping({"num_tables": str(MAX_TABLES + 1)})
        wide = lsh_config_from_mapping({"hashes_per_table": "1", "num_tables": str(MAX_TABLES)})
        assert wide.num_tables == MAX_TABLES

    def test_bucket_keys_fit_a_u64(self):
        # an index keys table t's buckets t·R + address, so R·L <= 2^64
        assert LshConfig(num_tables=2, table_range=1 << 63).table_range == 1 << 63
        assert LshConfig(num_tables=1 << 20, table_range=1 << 44).num_tables == 1 << 20
        with pytest.raises(ConfigError, match="table_range \\* num_tables"):
            LshConfig(num_tables=4, table_range=1 << 63)
        with pytest.raises(ConfigError, match="table_range \\* num_tables"):
            lsh_config_from_mapping({"num_tables": "8", "table_range": str(1 << 62)})
        with pytest.raises(ConfigError, match="table_range \\* num_tables"):
            lsh_config_from_mapping({"num_tables": "3"}, table_range=1 << 63)

    @pytest.mark.parametrize(
        "field",
        ["hashes_per_table", "table_range", "sketch_rows", "sketch_cols", "master_seed", "top_k"],
    )
    def test_every_field_fits_a_u64(self, field):
        # the fingerprint, the index and the hashes hold each field in a u64;
        # at L = 1, R = 2^64 passes the R·L bound and must still be rejected
        wide = {field: 1 << 64, "num_tables": 1}
        with pytest.raises(ConfigError, match=f"{field}.* must fit in 64 bits"):
            LshConfig(**wide)
        with pytest.raises(ConfigError, match=f"{field}.* must fit in 64 bits"):
            lsh_config_from_mapping({k: str(v) for k, v in wide.items()})
        largest = {field: (1 << 64) - 1, "sketch_cols": 8}  # sketch_cols 0 derives 4·top_k
        if field == "hashes_per_table":
            largest = {field: (1 << 28) - 1}  # the densified hash bounds K·L, here L = 16
        elif field == "table_range":
            largest = {"table_range": 1 << 63, "num_tables": 2}
        elif field in ("sketch_rows", "sketch_cols"):
            largest = {field: (1 << 32) - 1}  # the sketch record's u32 fields bound W and B
        config = LshConfig(**largest)
        assert getattr(config, field) == largest[field]
        assert 0 <= config.fingerprint() < 1 << 64
        key_type, _ = _column_types(config, 0)
        assert _table_bases(config, key_type)[-1] == (config.num_tables - 1) * config.table_range

    def test_derived_sketch_cols_fits_a_u64(self):
        # 4·top_k past 2^64 - 1 fails as a u64; below it, past 2^32 - 1, as a u32
        assert LshConfig(top_k=(1 << 30) - 1).sketch_cols == (1 << 32) - 4
        with pytest.raises(ConfigError, match="sketch_cols must be at most 2\\^32 - 1"):
            LshConfig(top_k=(1 << 62) - 1)
        with pytest.raises(ConfigError, match="sketch_cols.* must fit in 64 bits"):
            LshConfig(top_k=1 << 62)
        with pytest.raises(ConfigError, match="must be >= 0"):
            LshConfig(master_seed=-1)

    @pytest.mark.parametrize("field", ["sketch_rows", "sketch_cols"])
    def test_sketch_shape_fits_the_records_u32_fields(self, field):
        # checked by rejection only: no sketch of that shape is built
        reason = f"{field} must be at most 2\\^32 - 1: the sketch record's header holds W and B"
        with pytest.raises(ConfigError, match=reason):
            LshConfig(**{field: 1 << 32})
        with pytest.raises(ConfigError, match=reason):
            lsh_config_from_mapping({field: str(1 << 32)})
        assert getattr(LshConfig(**{field: (1 << 32) - 1}), field) == (1 << 32) - 1

    def test_densified_bins_fit_a_u32(self):
        # the densified hash range-maps every index into one of K·L bins,
        # which needs K·L < 2^32; checked by construction only, nothing hashes
        reason = "hashes_per_table \\* num_tables must be at most 2\\^32 - 1: the densified"
        with pytest.raises(ConfigError, match=reason):
            LshConfig(hashes_per_table=1 << 16, num_tables=1 << 16)
        with pytest.raises(ConfigError, match=reason):
            lsh_config_from_mapping({"hashes_per_table": str(1 << 16), "num_tables": str(1 << 16)})
        config = LshConfig(hashes_per_table=65535, num_tables=65537)
        assert config.hashes_per_table * config.num_tables == (1 << 32) - 1

    def test_fingerprint_sensitive_to_every_field(self):
        base = LshConfig()
        variants = [
            LshConfig(hashes_per_table=5),
            LshConfig(num_tables=17),
            LshConfig(table_range=1 << 19),
            LshConfig(sketch_rows=5),
            LshConfig(sketch_cols=33),
            LshConfig(master_seed=1),
            LshConfig(top_k=9),
        ]
        fps = {v.fingerprint() for v in variants}
        assert base.fingerprint() not in fps
        assert len(fps) == len(variants)

    def test_default_fingerprint_is_pinned(self):
        # saved index files store it: a new value makes them unloadable
        assert LshConfig().fingerprint() == 0x1BA58D968EB2035F

    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"master_seed": 0},
            {"master_seed": (1 << 64) - 1},
            {"hashes_per_table": (1 << 28) - 1},
            {"top_k": (1 << 64) - 1, "sketch_cols": 8},
            {"table_range": 1 << 63, "num_tables": 2},
            {"sketch_rows": (1 << 32) - 1, "sketch_cols": (1 << 32) - 1},
        ],
    )
    def test_fingerprint_equals_the_per_call_fold(self, fields):
        # folded once at construction, bit for bit as the per-call fold did
        config = LshConfig(**fields)
        assert config.fingerprint() == reference_fingerprint(config)
        assert config.fingerprint() == LshConfig(**fields).fingerprint()


class TestDatasetPartition:
    def test_accepts_valid(self):
        part = DatasetPartition(0, [(0, SparseVector([1], 4)), (7, SparseVector([2], 4))])
        assert len(part) == 2

    def test_rejects_duplicate_ids(self):
        v = SparseVector([1], 4)
        with pytest.raises(InvalidVectorError):
            DatasetPartition(0, [(3, v), (3, v)])

    def test_rejects_reserved_id(self):
        with pytest.raises(InvalidVectorError):
            DatasetPartition(0, [(NULL_ID, SparseVector([1], 4))])

    @pytest.mark.parametrize("vid", [-1, 1 << 64])
    def test_rejects_ids_outside_64_bits(self, vid):
        with pytest.raises(InvalidVectorError, match=f"vector id {vid} outside"):
            DatasetPartition(0, [(0, SparseVector([1], 4)), (vid, SparseVector([2], 4))])

    def test_rejects_ids_that_do_not_rise(self):
        # a repeated id and a falling one, through both constructors
        for ids, match in [([2, 5, 5], "duplicate vector id 5"), ([2, 9, 5], "vector id 9 before 5")]:
            pairs = [(vid, SparseVector([1], 4)) for vid in ids]
            with pytest.raises(InvalidVectorError, match=match):
                DatasetPartition(0, pairs)
            rows = SparseRows.stack([v for _, v in pairs])
            with pytest.raises(InvalidVectorError, match=match):
                DatasetPartition.from_rows(0, np.array(ids, dtype=np.uint64), rows)

    def test_holds_csr_columns_and_gives_back_the_pairs(self):
        pairs = [(2, SparseVector([1, 3], 6)), (5, SparseVector([], 6)), (9, SparseVector([0], 6))]
        part = DatasetPartition(4, pairs)
        assert part.node_id == 4 and len(part) == 3
        assert part.ids.tolist() == [2, 5, 9]
        assert part.rows.indptr.tolist() == [0, 2, 2, 3]
        assert part.rows.indices.tolist() == [1, 3, 0]
        assert partition_vectors(part) == tuple(pairs)
        again = DatasetPartition.from_rows(4, part.ids, part.rows)
        assert partition_vectors(again) == tuple(pairs)

    def test_from_rows_checks_ids_against_rows(self):
        rows = SparseRows([0, 1, 2], [3, 1], 4)
        with pytest.raises(InvalidVectorError, match="2 vector ids for 2 rows|duplicate"):
            DatasetPartition.from_rows(0, np.array([7, 7], dtype=np.uint64), rows)
        with pytest.raises(InvalidVectorError, match="1 vector ids for 2 rows"):
            DatasetPartition.from_rows(0, np.array([7], dtype=np.uint64), rows)


class TestSparseRows:
    def test_rows_may_restart_low_and_be_empty(self):
        rows = SparseRows([0, 2, 2, 3], [5, 9, 1], 10)
        assert len(rows) == 3
        assert not rows.indices.flags.writeable and not rows.indptr.flags.writeable

    @pytest.mark.parametrize("indptr,indices,dim", [
        ([0, 2], [5, 5], 10),  # repeated within a row
        ([0, 3], [5, 9, 1], 10),  # falling within a row
        ([0, 1, 2], [3, 10], 10),  # past dim
        ([1, 2], [3, 4], 10),  # pointer not starting at 0
        ([0, 3], [3, 4], 10),  # pointer past the indices
        ([0, 2, 1, 2], [3, 4], 10),  # pointer falling
        ([], [], 10),  # no pointer at all
        ([0, 1], [-1], 10),  # negative index
    ])
    def test_rejects_malformed_rows(self, indptr, indices, dim):
        with pytest.raises(InvalidVectorError):
            SparseRows(indptr, indices, dim)

    def test_stack_concatenates_once(self):
        vectors = [SparseVector([1, 4], 8), SparseVector([], 8), SparseVector([0, 9], 12)]
        rows = SparseRows.stack(vectors)
        assert rows.indptr.tolist() == [0, 2, 2, 4]
        assert rows.indices.tolist() == [1, 4, 0, 9]
        assert rows.dim == 12
        assert len(SparseRows.stack([])) == 0


@pytest.mark.parametrize(
    "field", ["SparseVector.indices", "SparseRows.indptr", "SparseRows.indices", "DatasetPartition.ids"]
)
def test_constructors_freeze_a_view_not_the_callers_array(field):
    indptr = np.array([0, 2, 3], dtype=np.int64)
    indices = np.array([1, 4, 6], dtype=np.uint64)
    ids = np.array([5, 8], dtype=np.uint64)
    rows = SparseRows(indptr, indices, 10)
    given, held = {
        "SparseVector.indices": lambda: (indices, SparseVector(indices, 10).indices),
        "SparseRows.indptr": lambda: (indptr, rows.indptr),
        "SparseRows.indices": lambda: (indices, rows.indices),
        "DatasetPartition.ids": lambda: (ids, DatasetPartition.from_rows(0, ids, rows).ids),
    }[field]()
    # the memory is shared, not copied; only the object's view is read-only
    assert np.shares_memory(given, held)
    assert given.flags.writeable and not held.flags.writeable


def test_read_only_indices_are_held_without_a_view():
    frozen = np.array([1, 4, 6], dtype=np.uint64)
    frozen.setflags(write=False)
    assert SparseVector(frozen, 10).indices is frozen
    assert SparseRows(np.array([0, 3]), frozen, 10).indices is frozen
    # the generators freeze the arrays they make, so their vectors own them
    rng = np.random.default_rng(3)
    made = random_sparse_vector(rng, 64, 5)
    swapped = vector_with_swaps(rng, made, 2)
    assert made.indices.base is None and swapped.indices.base is None
