"""Tests for the direct-mapped cache simulators and the data-cache model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.cache import simulate_trace
from repro.cache.datacache import DATA_MISS_CYCLES, DataCacheModel
from repro.cache.stats import CacheStats

from fetch_oracle import DirectMappedCache


class TestReferenceCache:
    def test_compulsory_miss_then_hit(self):
        cache = DirectMappedCache(cache_bytes=256)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(4)  # same line

    def test_conflict_miss(self):
        cache = DirectMappedCache(cache_bytes=256)  # 8 sets
        cache.access(0)
        cache.access(256)  # maps to set 0, evicts line 0
        assert not cache.access(0)

    def test_distinct_sets_do_not_conflict(self):
        cache = DirectMappedCache(cache_bytes=256)
        cache.access(0)
        cache.access(32)
        assert cache.access(0)
        assert cache.access(32)

    def test_miss_lines_recorded_in_order(self):
        cache = DirectMappedCache(cache_bytes=256)
        for address in (0, 256, 0):
            cache.access(address)
        assert list(cache.stats().miss_lines) == [0, 8, 0]

    def test_full_capacity_loop_fits(self):
        cache = DirectMappedCache(cache_bytes=256)
        addresses = list(range(0, 256, 4)) * 3
        stats = cache.run(addresses)
        assert stats.misses == 8  # compulsory only

    def test_loop_larger_than_cache_thrashes(self):
        cache = DirectMappedCache(cache_bytes=256)
        addresses = list(range(0, 512, 4)) * 3
        stats = cache.run(addresses)
        assert stats.misses == 16 * 3

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(cache_bytes=100)
        with pytest.raises(ConfigurationError):
            DirectMappedCache(cache_bytes=256, line_size=24)
        with pytest.raises(ConfigurationError):
            DirectMappedCache(cache_bytes=96, line_size=32)  # 3 sets


class TestVectorisedCache:
    def test_empty_trace(self):
        stats = simulate_trace(np.array([], dtype=np.uint32), 256)
        assert stats.accesses == 0 and stats.misses == 0

    def test_matches_reference_on_sequential_trace(self):
        addresses = np.arange(0, 4096, 4, dtype=np.uint32)
        vector = simulate_trace(addresses, 1024)
        reference = DirectMappedCache(1024).run(addresses)
        assert vector.misses == reference.misses
        assert np.array_equal(vector.miss_lines, reference.miss_lines)

    def test_matches_reference_on_looping_trace(self):
        loop = np.tile(np.arange(0, 640, 4, dtype=np.uint32), 5)
        vector = simulate_trace(loop, 512)
        reference = DirectMappedCache(512).run(loop)
        assert vector.misses == reference.misses
        assert np.array_equal(vector.miss_lines, reference.miss_lines)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 2047), min_size=1, max_size=400),
        st.sampled_from([256, 512, 1024]),
    )
    def test_property_equivalence_random_traces(self, word_indices, cache_bytes):
        addresses = np.array([index * 4 for index in word_indices], dtype=np.uint32)
        vector = simulate_trace(addresses, cache_bytes)
        reference = DirectMappedCache(cache_bytes).run(addresses)
        assert vector.accesses == reference.accesses
        assert vector.misses == reference.misses
        assert np.array_equal(vector.miss_lines, reference.miss_lines)

    def test_accesses_counts_full_trace_not_events(self):
        addresses = np.zeros(100, dtype=np.uint32)
        stats = simulate_trace(addresses, 256)
        assert stats.accesses == 100
        assert stats.misses == 1

    def test_larger_cache_never_misses_more(self):
        rng = np.random.default_rng(1)
        addresses = (rng.integers(0, 1024, size=5000) * 4).astype(np.uint32)
        misses = [
            simulate_trace(addresses, size).misses for size in (256, 512, 1024, 2048, 4096)
        ]
        assert misses == sorted(misses, reverse=True)


class TestCacheStats:
    def test_hit_count_and_miss_rate(self):
        stats = CacheStats(accesses=10, misses=2, miss_lines=np.array([1, 2]))
        assert stats.hits == 8
        assert stats.miss_rate == pytest.approx(0.2)

    def test_zero_access_miss_rate(self):
        stats = CacheStats(accesses=0, misses=0, miss_lines=np.array([]))
        assert stats.miss_rate == 0.0

    def test_inconsistent_miss_lines_rejected(self):
        with pytest.raises(ValueError):
            CacheStats(accesses=5, misses=2, miss_lines=np.array([1]))


class TestDataCacheModel:
    def test_no_data_cache_is_4_cycles_per_access(self):
        model = DataCacheModel(miss_rate=1.0)
        assert model.penalty_cycles(100) == 400

    def test_perfect_data_cache(self):
        assert DataCacheModel(miss_rate=0.0).penalty_cycles(1000) == 0

    def test_partial_miss_rate(self):
        assert DataCacheModel(miss_rate=0.25).penalty_cycles(1000) == 1000

    def test_paper_sweep_points_monotonic(self):
        penalties = [
            DataCacheModel(miss_rate=rate).penalty_cycles(10_000)
            for rate in (0.0, 0.02, 0.10, 0.25, 1.0)
        ]
        assert penalties == sorted(penalties)
        assert penalties[-1] == 10_000 * DATA_MISS_CYCLES

    def test_invalid_miss_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            DataCacheModel(miss_rate=1.5)

    def test_negative_access_count_rejected(self):
        with pytest.raises(ConfigurationError):
            DataCacheModel().penalty_cycles(-1)
