import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchlsh._bits import UINT64_MAX, mix64, range_map, seed_stream
from sketchlsh.core import ConfigError, EmptyVectorError, LshConfig, SparseRows, SparseVector
from sketchlsh import hashing
from sketchlsh.hashing import (
    HashFamily,
    _fold_addresses,
    _index_hashes,
    minhash_many,
)

from sketchlsh.synthetic import random_sparse_vectors

from oracles import (
    doph_hashes,
    exact_jaccard,
    minhash,
    pair_with_jaccard,
    reference_addresses,
    slot_hashes,
    table_address,
)


class TestMixing:
    def test_wraps_are_silent_and_a_scalar_mixes_as_an_array(self):
        # every wrap ran under np.errstate; numpy warns of one only in scalar arithmetic
        top = np.array([UINT64_MAX])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mix64(UINT64_MAX) == mix64(top)[0] == 16490336266968443936
            assert isinstance(mix64(UINT64_MAX), np.uint64)
            assert range_map(UINT64_MAX, 2**32 - 1) == range_map(top, 2**32 - 1)[0]
            stream = seed_stream(2**64 - 1, 2, tag=2**64 - 1)
            assert stream.tolist() == seed_stream(top, 2, tag=top).tolist()
            assert stream.tolist() == [7439718947412749605, 7569973598659836659]


class TestMinhash:
    def test_deterministic(self):
        v = SparseVector([3, 9, 40], 100)
        seeds = np.array([123, 5], dtype=np.uint64)
        assert np.array_equal(minhash_many(v, seeds), minhash_many(v, seeds))

    def test_singleton_equals_seeded_index_hash(self):
        v = SparseVector([5], 100)
        expected = int(_index_hashes(np.array([5], dtype=np.uint64), np.uint64(77))[0])
        assert int(minhash_many(v, np.array([77]))[0]) == minhash(v, 77) == expected

    def test_empty_vector_rejected(self):
        with pytest.raises(EmptyVectorError):
            minhash_many(SparseVector([], 10), np.array([1]))
        with pytest.raises(EmptyVectorError):  # the per-seed reference agrees
            minhash(SparseVector([], 10), 1)

    def test_many_matches_scalar(self, rng):
        v = SparseVector(np.sort(rng.choice(1000, 20, replace=False)), 1000)
        seeds = seed_stream(42, 50, tag=9)
        bulk = minhash_many(v, seeds)
        for i in (0, 7, 49):
            assert int(bulk[i]) == minhash(v, int(seeds[i]))

    def test_collision_rate_tracks_jaccard(self, rng):
        # collision law checked against the exact sorted-list intersection oracle
        seeds = seed_stream(31337, 10_000, tag=4)
        for shared, oa, ob in [(20, 80, 80), (50, 50, 50), (45, 5, 5)]:
            va, vb = pair_with_jaccard(rng, shared, oa, ob)
            j = exact_jaccard(va, vb)
            rate = float(np.mean(minhash_many(va, seeds) == minhash_many(vb, seeds)))
            assert abs(rate - j) <= 0.02


class TestDoph:
    def test_dense_case_no_densification(self, rng):
        # enough indices that every bin is hit; outputs must equal bin minima
        n_bins = 8
        for attempt in range(50):
            idx = np.sort(rng.choice(100_000, 200, replace=False))
            v = SparseVector(idx, 100_000)
            h = _index_hashes(v.indices, np.uint64(5))
            from sketchlsh._bits import range_map

            bins = range_map(h, n_bins)
            if len(set(bins.tolist())) == n_bins:
                break
        else:
            pytest.fail("could not build a fully occupied vector")
        expected = {}
        for hv, b in zip(h.tolist(), bins.tolist()):
            expected[b] = min(expected.get(b, 1 << 64), hv)
        out = doph_hashes(v, n_bins, 5)
        assert [int(x) for x in out] == [expected[b] for b in range(n_bins)]

    def test_singleton_densifies_everywhere(self):
        v = SparseVector([17], 100)
        out = doph_hashes(v, 4, 99)
        expected = int(_index_hashes(np.array([17], dtype=np.uint64), np.uint64(99))[0])
        assert [int(x) for x in out] == [expected] * 4

    def test_deterministic_and_empty_rejected(self):
        v = SparseVector([1, 5], 10)
        assert np.array_equal(doph_hashes(v, 16, 3), doph_hashes(v, 16, 3))
        with pytest.raises(EmptyVectorError):
            doph_hashes(SparseVector([], 10), 4, 3)
        with pytest.raises(ConfigError):
            doph_hashes(v, 0, 3)

    def test_reads_each_index_exactly_once(self, monkeypatch):
        calls = []
        original = hashing._index_hashes

        def counting(indices, seed):
            calls.append(indices.size)
            return original(indices, seed)

        monkeypatch.setattr(hashing, "_index_hashes", counting)
        v = SparseVector([2, 5, 9, 30], 100)
        doph_hashes(v, 64, 11)
        assert calls == [v.nnz]

    def test_slot_collision_rate_tracks_jaccard(self, rng):
        seeds = seed_stream(2024, 2000, tag=5)
        va, vb = pair_with_jaccard(rng, 30, 10, 10)
        j = exact_jaccard(va, vb)
        n_bins = 16
        hits = 0
        for s in seeds:
            ha = doph_hashes(va, n_bins, int(s))
            hb = doph_hashes(vb, n_bins, int(s))
            hits += int(np.sum(ha == hb))
        rate = hits / (len(seeds) * n_bins)
        assert abs(rate - j) <= 0.03


class TestTableAddress:
    def test_identical_hashes_identical_address(self, rng):
        h = rng.integers(0, 1 << 63, size=4, dtype=np.uint64)
        assert table_address(h, 7, 1024) == table_address(h.copy(), 7, 1024)

    def test_address_in_range(self, rng):
        for _ in range(200):
            h = rng.integers(0, 1 << 63, size=3, dtype=np.uint64)
            a = table_address(h, 1, 256)
            assert 0 <= a < 256

    def test_requires_power_of_two(self):
        with pytest.raises(ConfigError):
            table_address(np.array([1], dtype=np.uint64), 0, 1000)

    def test_occupancy_near_uniform(self, rng):
        # chi-square style occupancy check: 1e6 random slot vectors into 1024 cells
        draws = rng.integers(0, 1 << 63, size=(1_000_000, 4), dtype=np.uint64)
        seeds = np.full(draws.shape[0], 42, dtype=np.uint64)
        addrs = _fold_addresses(draws, seeds, 1024)
        counts = np.bincount(addrs.astype(np.int64), minlength=1024)
        assert counts.max() / counts.mean() <= 1.5

    def test_matches_vectorized_fold(self, rng):
        h = rng.integers(0, 1 << 63, size=(5, 6), dtype=np.uint64)
        seeds = seed_stream(3, 5, tag=1)
        batched = _fold_addresses(h, seeds, 2048)
        for i in range(5):
            assert int(batched[i]) == table_address(h[i], int(seeds[i]), 2048)


class TestHashFamily:
    def test_identical_across_nodes(self):
        cfg = LshConfig(hashes_per_table=4, num_tables=6, table_range=1 << 12)
        fam_a = HashFamily.from_config(cfg)
        fam_b = HashFamily.from_config(cfg)
        v = SparseVector([4, 9, 100, 501], 1000)
        assert np.array_equal(slot_hashes(fam_a, v), slot_hashes(fam_b, v))
        assert np.array_equal(fam_a.addresses(v), fam_b.addresses(v))

    def test_slot_hashes_are_one_permutation_slices(self):
        cfg = LshConfig(hashes_per_table=3, num_tables=5, table_range=1 << 12)
        fam = HashFamily.from_config(cfg)
        v = SparseVector([4, 9, 100], 1000)
        flat = doph_hashes(v, 15, fam.perm_seed)
        assert np.array_equal(slot_hashes(fam, v), flat.reshape(5, 3))

    def test_addresses_within_range(self):
        cfg = LshConfig(hashes_per_table=2, num_tables=4, table_range=256)
        fam = HashFamily.from_config(cfg)
        addrs = fam.addresses(SparseVector([1, 2, 3], 10))
        assert addrs.shape == (4,)
        assert int(addrs.max()) < 256


# -- the batched pass against the per-vector reference --------------------------------


def family_of(k: int, tables: int, seed: int = 17) -> HashFamily:
    return HashFamily.from_config(
        LshConfig(hashes_per_table=k, num_tables=tables, table_range=1 << 12, master_seed=seed)
    )


def n_bins(fam: HashFamily) -> int:
    return fam.num_tables * fam.hashes_per_table


def bin_pool(fam: HashFamily, dim: int = 4096) -> np.ndarray:
    """The DOPH bin of every index below ``dim`` under the family's seed."""
    h = _index_hashes(np.arange(dim, dtype=np.uint64), np.uint64(fam.perm_seed))
    return range_map(h, n_bins(fam))


def one_bin_vector(fam: HashFamily, b: int, count: int, dim: int = 4096) -> SparseVector:
    """A vector whose indices all land in bin ``b`` (at most ``count`` of them)."""
    return SparseVector(np.flatnonzero(bin_pool(fam, dim) == b)[:count], dim)


def all_bins_vector(fam: HashFamily, dim: int = 4096) -> SparseVector:
    """A vector with exactly one index in every bin."""
    bins = bin_pool(fam, dim)
    _, first = np.unique(bins, return_index=True)
    assert first.size == n_bins(fam)
    return SparseVector(np.sort(first), dim)


VECTOR_KIND = st.sampled_from(["random", "one_bin", "all_bins", "single"])


@st.composite
def batches(draw):
    fam = family_of(draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(0, 3)))
    vectors = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(VECTOR_KIND)
        if kind == "random":
            idx = draw(st.sets(st.integers(0, 4095), min_size=1, max_size=60))
            vectors.append(SparseVector(sorted(idx), 4096))
        elif kind == "one_bin":
            b = draw(st.integers(0, n_bins(fam) - 1))
            vectors.append(one_bin_vector(fam, b, draw(st.integers(1, 8))))
        elif kind == "all_bins":
            vectors.append(all_bins_vector(fam))
        else:
            vectors.append(SparseVector([draw(st.integers(0, 4095))], 4096))
    return fam, vectors


class TestBatchedAddresses:
    @settings(max_examples=200, deadline=None, database=None)
    @given(case=batches(), chunk=st.sampled_from([1, 7, 30, hashing._CHUNK_BINS]))
    def test_equals_per_vector_reference(self, case, chunk):
        fam, vectors = case
        with mock.patch.object(hashing, "_CHUNK_BINS", chunk):
            got = fam.addresses(vectors)
            assert np.array_equal(fam.addresses(SparseRows.stack(vectors)), got)
        assert got.shape == (len(vectors), fam.num_tables)
        assert got.dtype == np.uint64
        assert np.array_equal(got, reference_addresses(fam, vectors))
        for i, v in enumerate(vectors[:3]):
            assert np.array_equal(fam.addresses(v), got[i])

    @pytest.mark.parametrize("k,tables", [(4, 16), (3, 5), (1, 1)])
    def test_adversarial_vectors(self, k, tables):
        fam = family_of(k, tables)
        vectors = [
            SparseVector([9], 4096),
            all_bins_vector(fam),
            one_bin_vector(fam, 0, 5),
            one_bin_vector(fam, n_bins(fam) - 1, 5),
            SparseVector(np.arange(0, 4096, 3), 4096),
        ]
        assert np.array_equal(fam.addresses(vectors), reference_addresses(fam, vectors))

    def test_more_rows_than_one_chunk(self, rng):
        fam = family_of(8, 32)  # 256 bins: 64 rows per pass
        vectors = random_sparse_vectors(rng, 3 * 64 + 5, 4096, 12)
        assert np.array_equal(fam.addresses(vectors), reference_addresses(fam, vectors))

    def test_single_and_empty_batches(self):
        fam = family_of(3, 5)
        v = SparseVector([4, 9, 100], 1000)
        assert fam.addresses([v]).shape == (1, 5)
        assert np.array_equal(fam.addresses([v])[0], fam.addresses(v))
        assert fam.addresses([]).shape == (0, 5)
        assert fam.addresses(()).dtype == np.uint64

    @pytest.mark.parametrize("position", [0, 1, 3])
    def test_empty_vector_anywhere_rejected(self, position):
        fam = family_of(2, 3)
        vectors = [SparseVector([i, i + 5], 100) for i in range(3)]
        vectors.insert(position, SparseVector([], 100))
        with pytest.raises(EmptyVectorError):
            fam.addresses(vectors)

    def test_one_index_hash_pass_per_chunk(self, monkeypatch):
        calls = []
        original = hashing._index_hashes

        def counting(indices, seed):
            calls.append(indices.size)
            return original(indices, seed)

        monkeypatch.setattr(hashing, "_index_hashes", counting)
        fam = family_of(4, 16)
        vectors = [SparseVector(np.arange(i, 40 + 3 * i), 1000) for i in range(5)]
        fam.addresses(vectors)
        assert calls == [sum(v.nnz for v in vectors)]
