"""Tests for the set-associative cache extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.cache.direct_mapped import simulate_trace
from repro.cache.set_associative import (
    SetAssociativeCache,
    simulate_trace_associative,
)


class TestSetAssociativeCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(256, ways=2)
        assert not cache.access(0)
        assert cache.access(0)

    def test_two_way_survives_direct_mapped_conflict(self):
        # 256 B, 2-way: 4 sets; lines 0 and 4 share set 0 but coexist.
        cache = SetAssociativeCache(256, ways=2)
        cache.access(0)
        cache.access(4 * 32)
        assert cache.access(0)
        assert cache.access(4 * 32)

    def test_lru_eviction(self):
        cache = SetAssociativeCache(256, ways=2)  # 4 sets
        lines = [0, 4, 8]  # all map to set 0
        cache.access(lines[0] * 32)
        cache.access(lines[1] * 32)
        cache.access(lines[0] * 32)  # touch 0: 4 becomes LRU
        cache.access(lines[2] * 32)  # evicts 4
        assert cache.access(lines[0] * 32)
        assert not cache.access(lines[1] * 32)

    def test_one_way_equals_direct_mapped(self):
        addresses = np.array([0, 256, 0, 32, 288, 32, 0], dtype=np.uint32)
        associative = SetAssociativeCache(256, ways=1).run(addresses)
        direct = simulate_trace(addresses, 256)
        assert associative.misses == direct.misses
        assert np.array_equal(associative.miss_lines, direct.miss_lines)

    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(256, ways=0)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(100, ways=2)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(192, ways=2)  # 3 sets

    def test_full_associative_when_one_set(self):
        cache = SetAssociativeCache(256, ways=8)  # 1 set of 8 ways
        for line in range(8):
            cache.access(line * 32)
        assert all(cache.access(line * 32) for line in range(8))


class TestTraceSimulation:
    def test_empty_trace(self):
        stats = simulate_trace_associative(np.array([], dtype=np.uint32), 256, ways=2)
        assert stats.accesses == 0

    def test_matches_reference_model(self):
        rng = np.random.default_rng(3)
        addresses = (rng.integers(0, 512, size=3000) * 4).astype(np.uint32)
        fast = simulate_trace_associative(addresses, 512, ways=2)
        reference = SetAssociativeCache(512, ways=2).run(addresses)
        assert fast.misses == reference.misses
        assert np.array_equal(fast.miss_lines, reference.miss_lines)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 511), min_size=1, max_size=300),
        st.sampled_from([(256, 2), (512, 4), (1024, 2)]),
    )
    def test_property_event_collapse_is_sound(self, word_indices, geometry):
        cache_bytes, ways = geometry
        addresses = np.array([index * 4 for index in word_indices], dtype=np.uint32)
        fast = simulate_trace_associative(addresses, cache_bytes, ways=ways)
        reference = SetAssociativeCache(cache_bytes, ways=ways).run(addresses)
        assert fast.misses == reference.misses
        assert fast.accesses == reference.accesses

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    def test_property_associativity_never_hurts_with_lru(self, word_indices):
        """For a fixed capacity, LRU set-associativity vs direct-mapped:
        more ways may reshuffle conflicts, but a fully associative LRU
        cache never misses more than… (that's only true vs itself), so we
        assert the weaker, always-true invariant: miss counts are bounded
        by the trace length and at least the number of distinct lines'
        compulsory misses."""
        addresses = np.array([index * 4 for index in word_indices], dtype=np.uint32)
        distinct = len(set(index * 4 // 32 for index in word_indices))
        for ways in (1, 2, 4):
            stats = simulate_trace_associative(addresses, 512, ways=ways)
            assert distinct <= stats.misses <= len(addresses)

    def test_espresso_benefits_from_associativity(self):
        """The extension result: espresso's direct-mapped pain (paper
        Section 4.3) is substantially conflict misses."""
        from repro.workloads import load

        trace = load("espresso").run().trace.addresses
        for cache_bytes in (1024, 4096):
            direct = simulate_trace(trace, cache_bytes).miss_rate
            two_way = simulate_trace_associative(trace, cache_bytes, ways=2).miss_rate
            assert two_way < direct, cache_bytes
