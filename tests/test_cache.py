"""Language-cache tests: level index, int cache, packed cache."""

import numpy as np
import pytest

from repro.core.cache import IntCache, LevelIndex, PackedCache


class TestLevelIndex:
    def test_mark_and_bounds(self):
        levels = LevelIndex()
        levels.mark(1, 0, 2)
        levels.mark(3, 2, 7)
        assert levels.bounds(1) == (0, 2)
        assert levels.bounds(3) == (2, 7)
        assert levels.bounds(2) is None
        assert levels.costs() == (1, 3)
        assert levels.last_complete_cost == 3
        assert levels.size_of(3) == 5
        assert levels.size_of(99) == 0

    def test_double_mark_rejected(self):
        levels = LevelIndex()
        levels.mark(1, 0, 1)
        with pytest.raises(ValueError):
            levels.mark(1, 1, 2)

    def test_decreasing_cost_rejected(self):
        levels = LevelIndex()
        levels.mark(5, 0, 1)
        with pytest.raises(ValueError):
            levels.mark(3, 1, 2)

    def test_empty_levels_allowed(self):
        levels = LevelIndex()
        levels.mark(1, 0, 0)
        assert levels.size_of(1) == 0
        assert levels.last_complete_cost == 1

    def test_initially_no_complete_cost(self):
        assert LevelIndex().last_complete_cost is None


class TestIntCache:
    def test_append_returns_indices(self):
        cache = IntCache()
        assert cache.append(5, 3) == 0
        assert cache.append(9, 7) == 1
        assert cache.cs_at(0) == 5
        assert cache.ordinals == [3, 7]
        assert len(cache) == 2

    def test_capacity(self):
        cache = IntCache(max_size=2)
        assert not cache.is_full
        cache.append(1)
        cache.append(2)
        assert cache.is_full

    def test_unbounded_never_full(self):
        cache = IntCache()
        cache.append(1)
        assert not cache.is_full


class TestPackedCache:
    def test_append_and_read(self):
        cache = PackedCache(lanes=2)
        rows = np.array([[7, 1]], dtype=np.uint64)
        cache.append_rows(rows, np.array([5], dtype=np.int64))
        assert len(cache) == 1
        assert list(cache.row(0)) == [7, 1]
        assert cache.ordinals.tolist() == [5]

    def test_growth_preserves_rows(self):
        cache = PackedCache(lanes=1)
        _fill(cache, range(200))
        assert len(cache) == 200
        assert int(cache.row(123)[0]) == 123
        assert cache.ordinals.tolist() == list(range(1, 201))
        assert cache.matrix.shape[0] >= 200

    def test_rows_view(self):
        cache = PackedCache(lanes=1)
        _fill(cache, range(10))
        view = cache.rows(2, 5)
        assert [int(v[0]) for v in view] == [2, 3, 4]

    def test_capacity(self):
        cache = PackedCache(lanes=1, max_size=1)
        cache.append_rows(np.zeros((1, 1), dtype=np.uint64))
        assert cache.is_full


def _fill(cache, values):
    """Append one row per value, one row at a time, ordinals 1, 2, ..."""
    for value in values:
        cache.append_rows(
            np.array([[value]], dtype=np.uint64),
            np.array([len(cache) + 1], dtype=np.int64),
        )


class TestPlaneCache:
    """The lazily bit-sliced per-level plane cache of `PackedCache`."""

    def test_planes_match_bitslice_of_rows(self):
        from repro.core.bitops import bitslice_rows

        cache = PackedCache(lanes=1)
        _fill(cache, range(40))
        planes = cache.planes(8, 24, n_bits=10)
        expected = bitslice_rows(cache.rows(8, 24), 10)
        assert np.array_equal(planes, expected)

    def test_second_request_is_served_from_the_cache(self):
        cache = PackedCache(lanes=1)
        _fill(cache, range(16))
        first = cache.planes(0, 16, n_bits=8)
        second = cache.planes(0, 16, n_bits=8)
        assert first is second
        assert cache.plane_stats["builds"] == 1
        assert cache.plane_stats["hits"] == 1

    def test_append_to_a_level_never_serves_stale_planes(self):
        """Slice a growing level, append, slice again: the grown range
        is a fresh (correct) build, never the stale cached entry."""
        from repro.core.bitops import bitslice_rows, lanes_to_int, unbitslice_rows

        cache = PackedCache(lanes=1)
        _fill(cache, [1, 2, 3, 4])
        small = cache.planes(0, 4, n_bits=8)
        _fill(cache, [5, 6, 7, 8])
        grown = cache.planes(0, 8, n_bits=8)
        assert grown is not small
        assert np.array_equal(grown, bitslice_rows(cache.rows(0, 8), 8))
        # The grown planes really contain the appended rows.
        back = unbitslice_rows(grown, 8, 1)
        assert [lanes_to_int(r) for r in back] == [1, 2, 3, 4, 5, 6, 7, 8]
        # The old (prefix) entry stays correct for its own range.
        assert np.array_equal(small, bitslice_rows(cache.rows(0, 4), 8))

    def test_unstored_range_rejected(self):
        cache = PackedCache(lanes=1)
        _fill(cache, range(4))
        with pytest.raises(ValueError):
            cache.planes(0, 5, n_bits=8)
        with pytest.raises(ValueError):
            cache.planes(-1, 2, n_bits=8)

    def test_lru_eviction_respects_the_byte_budget(self):
        cache = PackedCache(lanes=1, plane_cache_bytes=40)
        _fill(cache, range(64))
        a = cache.planes(0, 16, n_bits=8)   # 8 x 2 = 16 bytes
        cache.planes(16, 32, n_bits=8)
        cache.planes(32, 48, n_bits=8)
        cache.planes(48, 64, n_bits=8)
        cache.planes(0, 16, n_bits=8)  # the LRU entry (a) was evicted
        assert cache.plane_stats["evictions"] >= 1
        assert cache.plane_stats["builds"] >= 5
        # Rebuilt entry is still correct.
        assert np.array_equal(a, cache.planes(0, 16, n_bits=8))

    def test_oversized_single_entry_is_still_served(self):
        cache = PackedCache(lanes=1, plane_cache_bytes=1)
        _fill(cache, range(32))
        planes = cache.planes(0, 32, n_bits=8)
        assert planes.shape == (8, 4)
