"""Tests for the prefetching refill engine (:mod:`repro.prefetch`).

Covers the golden hand-computed prefetch timeline, the demand-policy
byte-identity with the plain fetch unit, the exact-vs-vectorized
equivalence (property-tested over random streams and pinned on a real
workload), the prefetch-never-hurts invariant, counter reconciliation,
and the BTB / buffer / configuration surfaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccrp.clb import CLB
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.isa import Assembler
from repro.memsys import EPROM
from repro.pipeline import FetchUnit
from repro.prefetch import (
    FETCH_POLICIES,
    FetchReplay,
    PrefetchBuffer,
    PrefetchEntry,
    PrefetchingFetchUnit,
    StaticBTB,
    build_btb,
    simulate_fetch_stream,
    validate_fetch_policy,
)

# ----------------------------------------------------------------------
# Golden hand-computed prefetch timeline
# ----------------------------------------------------------------------


class TestGoldenNextline:
    """A sequential walk over three lines, every cycle accounted by hand.

    Standard machine (no refill engine), EPROM, 64 B cache, 32 B lines:
    one full-line burst is 24 cycles.  Walking lines 0..2 word by word:

    * fetch @0 (shadow time 0): cold miss, 24-cycle stall; the next-line
      prefetch of line 1 starts at 24 and finishes at 48;
    * 7 hits advance the clock to 32;
    * fetch @32 (time 32): miss, buffer hit, residual 48-32 = 16 — a
      partial cover hiding 8 of the 24 cycles; line 2's prefetch queues
      behind the decoder (busy until 48) and finishes at 72;
    * 7 hits advance the clock to 56;
    * fetch @64 (time 56): residual 72-56 = 16 again, 8 more hidden.

    Totals: 56 stall cycles vs 72 demand, 16 covered, 3 issued, 2 useful
    (both partial), 1 still in flight.
    """

    def _run(self) -> PrefetchingFetchUnit:
        unit = PrefetchingFetchUnit(
            cache_bytes=64,
            memory=EPROM,
            policy="nextline",
            prefetch_depth=4,
            prefetch_bounds=(0, 4),
        )
        self.stalls = [unit.fetch(address) for address in range(0, 96, 4)]
        return unit

    def test_burst_assumption(self):
        assert EPROM.bytes_read_cycles(32) == 24

    def test_per_miss_stalls(self):
        self._run()
        misses = [stall for stall in self.stalls if stall]
        assert misses == [24, 16, 16]
        assert sum(self.stalls) == 56

    def test_counters(self):
        unit = self._run()
        counters = unit.counters()
        assert counters["misses"] == 3
        assert counters["prefetch_issued"] == 3
        assert counters["prefetch_useful"] == 2
        assert counters["prefetch_partial"] == 2
        assert counters["prefetch_useless"] == 0
        assert counters["prefetch_in_flight_at_exit"] == 1
        assert counters["prefetch_covered_stall_cycles"] == 16

    def test_demand_pays_full_price(self):
        unit = FetchUnit(cache_bytes=64, memory=EPROM)
        total = sum(unit.fetch(address) for address in range(0, 96, 4))
        assert total == 72  # 3 misses x 24 cycles — what prefetching beat


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------

_ADDRESSES = st.lists(
    st.integers(min_value=0, max_value=1023).map(lambda word: word * 4),
    min_size=1,
    max_size=250,
)


def _btb_for(data) -> StaticBTB:
    btb = StaticBTB(entries=8)
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        btb.train(
            data.draw(st.integers(min_value=0, max_value=127)),
            data.draw(st.integers(min_value=0, max_value=127)),
        )
    return btb


@settings(max_examples=40, deadline=None)
@given(addresses=_ADDRESSES, cache_bytes=st.sampled_from((64, 256, 1024)))
def test_demand_policy_is_byte_identical_to_plain_unit(addresses, cache_bytes):
    """With policy="demand" the subclass must not change a single stall."""
    stream = np.array(addresses, dtype=np.int64)
    plain = FetchUnit(cache_bytes=cache_bytes, memory=EPROM)
    prefetching = PrefetchingFetchUnit(
        cache_bytes=cache_bytes, memory=EPROM, policy="demand"
    )
    for address in stream.tolist():
        assert plain.fetch(address) == prefetching.fetch(address)
    assert plain.counters() == {
        key: value
        for key, value in prefetching.counters().items()
        if not key.startswith("prefetch_") and key != "traffic_bytes"
    }


@settings(max_examples=40, deadline=None)
@given(
    addresses=_ADDRESSES,
    cache_bytes=st.sampled_from((64, 256)),
    policy=st.sampled_from(FETCH_POLICIES),
    depth=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_exact_equals_timeline(addresses, cache_bytes, policy, depth, data):
    """The vectorized replay is byte-identical to the stateful unit."""
    stream = np.array(addresses, dtype=np.int64)
    btb = _btb_for(data) if policy == "btb" else None
    unit = PrefetchingFetchUnit(
        cache_bytes=cache_bytes,
        memory=EPROM,
        policy=policy,
        prefetch_depth=depth,
        btb=btb,
    )
    stalls = sum(unit.fetch(address) for address in stream.tolist())
    exact = FetchReplay.from_unit(unit, stalls)
    timeline = simulate_fetch_stream(
        stream,
        cache_bytes,
        32,
        EPROM,
        policy=policy,
        prefetch_depth=depth,
        btb=btb,
    )
    assert exact == timeline


@settings(max_examples=40, deadline=None)
@given(
    addresses=_ADDRESSES,
    cache_bytes=st.sampled_from((64, 256)),
    policy=st.sampled_from(("nextline", "btb")),
    data=st.data(),
)
def test_prefetch_never_costs_more_than_demand(addresses, cache_bytes, policy, data):
    """With no decoder contention and a perfect CLB, the abandon cap
    guarantees a covered miss never exceeds its demand cost — so the
    total can only improve.  (A shared CLB can break strict dominance
    through pollution; see docs/modeling_notes.md §15.)"""
    stream = np.array(addresses, dtype=np.int64)
    btb = _btb_for(data) if policy == "btb" else None
    demand = simulate_fetch_stream(stream, cache_bytes, 32, EPROM, policy="demand")
    prefetch = simulate_fetch_stream(
        stream, cache_bytes, 32, EPROM, policy=policy, btb=btb
    )
    assert prefetch.fetch_stall_cycles <= demand.fetch_stall_cycles
    assert prefetch.misses == demand.misses  # miss stream is policy-invariant


@settings(max_examples=40, deadline=None)
@given(
    addresses=_ADDRESSES,
    policy=st.sampled_from(("nextline", "btb")),
    data=st.data(),
)
def test_counters_reconcile(addresses, policy, data):
    """Every issued prefetch is eventually useful, useless, or in flight;
    hidden cycles plus the covered misses' residuals equal the demand
    bill those misses would have paid."""
    stream = np.array(addresses, dtype=np.int64)
    btb = _btb_for(data) if policy == "btb" else None
    replay = simulate_fetch_stream(stream, 64, 32, EPROM, policy=policy, btb=btb)
    assert replay.issued == replay.useful + replay.useless + replay.in_flight_at_exit
    assert replay.partial <= replay.useful
    assert replay.covered_stall_cycles >= 0
    assert replay.wasted_traffic_bytes <= replay.traffic_bytes


def test_real_workload_ccrp_equivalence():
    """Exact == timeline with the full CCRP machinery (refill + CLB) on a
    real trace prefix, for every policy."""
    from repro.core.artifacts import get_study

    for name, prefix, clb_entries in (("eightq", 30_000, 8), ("lloop01", 60_000, 16)):
        study = get_study(name)
        addresses = study.execution.trace.addresses[:prefix]
        engine = study.refill_engine("sc_dram", SystemConfig().decoder)
        for policy in FETCH_POLICIES:
            btb = study.btb() if policy == "btb" else None
            unit = PrefetchingFetchUnit(
                256,
                "sc_dram",
                refill=engine,
                clb=CLB(entries=clb_entries),
                policy=policy,
                btb=btb,
            )
            stalls = sum(unit.fetch(int(address)) for address in addresses)
            exact = FetchReplay.from_unit(unit, stalls)
            timeline = simulate_fetch_stream(
                addresses,
                256,
                32,
                "sc_dram",
                refill=engine,
                clb=CLB(entries=clb_entries),
                policy=policy,
                btb=btb,
            )
            assert exact == timeline, (name, policy)


# ----------------------------------------------------------------------
# BTB and buffer units
# ----------------------------------------------------------------------


class TestStaticBTB:
    def test_train_and_predict(self):
        btb = StaticBTB(entries=4)
        btb.train(10, 3)
        assert btb.predict(10) == 3
        assert btb.predict(11) is None

    def test_direct_mapped_conflict_later_wins(self):
        btb = StaticBTB(entries=4)
        btb.train(2, 9)
        btb.train(6, 17)  # same slot (6 % 4 == 2 % 4)
        assert btb.predict(2) is None
        assert btb.predict(6) == 17

    def test_build_from_program_cfg(self):
        source = (
            "main:\n"
            + "".join(f"    addu $t0, $t1, $t2\n" for _ in range(16))
            + "loop:\n"
            + "".join(f"    addu $t3, $t4, $t5\n" for _ in range(16))
            + "    bne $t0, $zero, main\n"
            + "    nop\n"
            + "    addiu $v0, $zero, 10\n    syscall\n"
        )
        program = Assembler().assemble(source)
        btb = build_btb(program.instructions, text_base=program.text_base)
        branch_address = program.text_base + 32 * 4  # the bne
        target_line = program.text_base // 32  # main's line
        assert btb.predict(branch_address // 32) == target_line
        assert btb.occupancy >= 1

    def test_fall_through_targets_are_skipped(self):
        # A branch whose target is its own line or the next line teaches
        # the BTB nothing next-line prefetch does not already cover.
        source = (
            "main:\n    bne $t0, $zero, skip\n    nop\nskip:\n"
            "    addiu $v0, $zero, 10\n    syscall\n"
        )
        program = Assembler().assemble(source)
        btb = build_btb(program.instructions, text_base=program.text_base)
        assert btb.occupancy == 0


class TestPrefetchBuffer:
    def test_fifo_eviction(self):
        buffer = PrefetchBuffer(depth=2)
        first = PrefetchEntry(line=1, issue_time=0, finish_time=10)
        buffer.insert(first)
        buffer.insert(PrefetchEntry(line=2, issue_time=1, finish_time=11))
        evicted = buffer.insert(PrefetchEntry(line=3, issue_time=2, finish_time=12))
        assert evicted == first
        assert 1 not in buffer and 2 in buffer and 3 in buffer

    def test_pop_removes(self):
        buffer = PrefetchBuffer(depth=2)
        entry = PrefetchEntry(line=5, issue_time=0, finish_time=9)
        buffer.insert(entry)
        assert buffer.pop(5) == entry
        assert buffer.pop(5) is None
        assert len(buffer) == 0

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PrefetchBuffer(depth=0)


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------


def test_validate_fetch_policy():
    for name in FETCH_POLICIES:
        assert validate_fetch_policy(name) == name
    with pytest.raises(ConfigurationError):
        validate_fetch_policy("oracle")


def test_config_requires_pipeline_backend():
    with pytest.raises(ConfigurationError):
        SystemConfig(fetch_policy="nextline", timing="additive")


def test_config_rejects_critical_word_first_combination():
    with pytest.raises(ConfigurationError):
        SystemConfig(
            fetch_policy="nextline", timing="pipeline", critical_word_first=True
        )


def test_config_accepts_prefetching_pipeline():
    config = SystemConfig(fetch_policy="btb", timing="pipeline", prefetch_depth=8)
    assert config.fetch_policy == "btb"
    assert config.prefetch_depth == 8


def test_btb_policy_requires_btb():
    with pytest.raises(ConfigurationError):
        PrefetchingFetchUnit(cache_bytes=64, memory=EPROM, policy="btb")
