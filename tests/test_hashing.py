import numpy as np
import pytest

from sketchlsh._bits import seed_stream
from sketchlsh.core import ConfigError, EmptyVectorError, LshConfig, SparseVector
from sketchlsh import hashing
from sketchlsh.hashing import (
    HashFamily,
    _fold_addresses,
    _index_hashes,
    doph_hashes,
    minhash,
    minhash_many,
    table_address,
)

from oracles import exact_jaccard, pair_with_jaccard


class TestMinhash:
    def test_deterministic(self):
        v = SparseVector([3, 9, 40], 100)
        assert minhash(v, 123) == minhash(v, 123)

    def test_singleton_equals_seeded_index_hash(self):
        v = SparseVector([5], 100)
        expected = int(_index_hashes(np.array([5], dtype=np.uint64), np.uint64(77))[0])
        assert minhash(v, 77) == expected

    def test_empty_vector_rejected(self):
        with pytest.raises(EmptyVectorError):
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
        assert np.array_equal(fam_a.seeds, fam_b.seeds)
        assert np.array_equal(fam_a.slot_hashes(v), fam_b.slot_hashes(v))
        assert np.array_equal(fam_a.addresses(v), fam_b.addresses(v))

    def test_slot_hashes_are_one_permutation_slices(self):
        cfg = LshConfig(hashes_per_table=3, num_tables=5, table_range=1 << 12)
        fam = HashFamily.from_config(cfg)
        v = SparseVector([4, 9, 100], 1000)
        flat = doph_hashes(v, 15, fam.perm_seed)
        assert np.array_equal(fam.slot_hashes(v), flat.reshape(5, 3))

    def test_addresses_within_range(self):
        cfg = LshConfig(hashes_per_table=2, num_tables=4, table_range=256)
        fam = HashFamily.from_config(cfg)
        addrs = fam.addresses(SparseVector([1, 2, 3], 10))
        assert addrs.shape == (4,)
        assert int(addrs.max()) < 256
