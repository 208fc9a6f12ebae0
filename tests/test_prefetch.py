"""Tests for the prefetching refill engine (:mod:`repro.prefetch`).

Covers the golden hand-computed prefetch timeline, the demand-policy
byte-identity with the plain fetch unit, the exact-vs-vectorized
equivalence (property-tested over random streams, pinned on real trace
prefixes, and checked on the full trace of every simulation program),
the prefetch-never-hurts invariant, counter reconciliation, and the
BTB / buffer / configuration surfaces.  The exact side is the
per-access walk of ``tests/fetch_oracle.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccrp.clb import CLB
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError
from repro.isa import Assembler
from repro.memsys import EPROM
from repro.pipeline import miss_events
from repro.prefetch import (
    FETCH_POLICIES,
    StaticBTB,
    build_btb,
    build_core,
    simulate_fetch_stream,
    validate_fetch_policy,
)
from repro.workloads.suite import SIMULATION_PROGRAMS

from fetch_oracle import STREAM_SLICE, FetchUnit, PrefetchingFetchUnit

RESULTS = Path(__file__).resolve().parent.parent / "results"

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


def _plain_counters(unit: PrefetchingFetchUnit) -> dict[str, int]:
    """The counters a plain :class:`FetchUnit` also reports."""
    return {
        key: value
        for key, value in unit.counters().items()
        if not key.startswith("prefetch_") and key != "traffic_bytes"
    }


@settings(max_examples=40, deadline=None)
@given(
    addresses=_ADDRESSES,
    cache_bytes=st.sampled_from((64, 256, 1024)),
    line_size=st.sampled_from((16, 32)),
)
def test_demand_policy_is_byte_identical_to_plain_unit(
    addresses, cache_bytes, line_size
):
    """With policy="demand" the subclass must not change a single stall,
    fetched address by address or walked as one stream.  The plain
    :class:`FetchUnit` loop is a separate per-access implementation."""
    stream = np.array(addresses, dtype=np.int64)
    plain = FetchUnit(cache_bytes=cache_bytes, memory=EPROM, line_size=line_size)
    prefetching = PrefetchingFetchUnit(
        cache_bytes, EPROM, line_size=line_size, policy="demand"
    )
    walk = PrefetchingFetchUnit(
        cache_bytes, EPROM, line_size=line_size, policy="demand"
    )
    plain_stalls = 0
    for address in stream.tolist():
        stall = plain.fetch(address)
        assert stall == prefetching.fetch(address)
        plain_stalls += stall
    assert walk.fetch_stream(stream) == plain_stalls
    assert plain.counters() == _plain_counters(prefetching) == _plain_counters(walk)


def test_demand_walk_equals_plain_unit_loop_with_refill_and_clb():
    """The same on a real trace prefix with the CCRP refill engine and a
    CLB, so per-line refill costs and LAT reads are compared too."""
    from repro.core.artifacts import get_study

    study = get_study("eightq")
    addresses = study.execution.trace.addresses[:30_000]
    engine = study.refill_engine("sc_dram", SystemConfig().decoder)
    plain = FetchUnit(256, "sc_dram", refill=engine, clb=CLB(entries=4))
    plain_stalls = sum(plain.fetch(address) for address in addresses.tolist())
    walk = PrefetchingFetchUnit(
        256, "sc_dram", refill=engine, clb=CLB(entries=4), policy="demand"
    )
    assert walk.fetch_stream(addresses) == plain_stalls
    assert plain.counters() == _plain_counters(walk)


@settings(max_examples=25, deadline=None)
@given(
    addresses=_ADDRESSES,
    cache_bytes=st.sampled_from((64, 256, 1024)),
    line_size=st.sampled_from((16, 32)),
    policy=st.sampled_from(FETCH_POLICIES),
    depth=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_fetch_stream_is_split_invariant(
    addresses, cache_bytes, line_size, policy, depth, data
):
    """One walk over a stream equals the same stream fed in pieces: split
    anywhere (across the slice boundary too) and partly fetched one
    address at a time."""
    length = STREAM_SLICE + data.draw(st.integers(min_value=-200, max_value=400))
    stream = np.resize(np.array(addresses, dtype=np.int64), length)
    cuts = sorted(
        data.draw(
            st.lists(st.integers(min_value=0, max_value=length), max_size=4)
            | st.just([STREAM_SLICE - 1, STREAM_SLICE + 1])
        )
    )
    btb = _btb_for(data) if policy == "btb" else None

    def unit() -> PrefetchingFetchUnit:
        return PrefetchingFetchUnit(
            cache_bytes,
            EPROM,
            line_size=line_size,
            policy=policy,
            prefetch_depth=depth,
            btb=btb,
        )

    whole = unit()
    expected = whole.replay(whole.fetch_stream(stream))

    pieces = unit()
    stalls = 0
    bounds = [0, *cuts, length]
    for index, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if index % 2 and stop - start <= 300:
            stalls += sum(pieces.fetch(address) for address in stream[start:stop].tolist())
        else:
            stalls += pieces.fetch_stream(stream[start:stop])
    assert pieces.replay(stalls) == expected
    assert pieces.counters() == whole.counters()


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
    exact = unit.replay(unit.fetch_stream(stream))
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
    real trace prefix, for every memory model and policy; the timeline
    replays one set of miss events per trace, as the study does."""
    from repro.core.artifacts import get_study

    for name, prefix, clb_entries in (("eightq", 30_000, 8), ("lloop01", 60_000, 16)):
        study = get_study(name)
        addresses = study.execution.trace.addresses[:prefix]
        events = miss_events(addresses, 256, 32)
        for memory in ("eprom", "burst_eprom", "sc_dram"):
            engine = study.refill_engine(memory, SystemConfig().decoder)
            for policy in FETCH_POLICIES:
                btb = study.btb() if policy == "btb" else None
                unit = PrefetchingFetchUnit(
                    256,
                    memory,
                    refill=engine,
                    clb=CLB(entries=clb_entries),
                    policy=policy,
                    btb=btb,
                )
                exact = unit.replay(unit.fetch_stream(addresses))
                timeline = simulate_fetch_stream(
                    events,
                    256,
                    32,
                    memory,
                    refill=engine,
                    clb=CLB(entries=clb_entries),
                    policy=policy,
                    btb=btb,
                )
                assert exact == timeline, (name, memory, policy)


def test_study_prefetch_replays_equal_the_full_trace_walk():
    """The prefetch study's 24 sc_dram cells at 1,024 B: the replay its
    tables read equals, in every field, a per-access walk of each
    simulation program's whole trace."""
    from repro.core.artifacts import get_study

    for name in SIMULATION_PROGRAMS:
        study = get_study(name)
        for policy in FETCH_POLICIES:
            config = SystemConfig(
                cache_bytes=1024,
                memory="sc_dram",
                timing="pipeline",
                fetch_policy=policy,
            )
            unit = PrefetchingFetchUnit(
                config.cache_bytes,
                config.memory,
                line_size=study.image.line_size,
                refill=study.refill_engine(config.memory, config.decoder),
                clb=CLB(entries=config.clb_entries),
                policy=policy,
                prefetch_depth=config.prefetch_depth,
                btb=study.btb() if policy == "btb" else None,
            )
            exact = unit.replay(unit.fetch_stream(study.execution.trace.addresses))
            assert study.prefetch_replay(config) == exact, (name, policy)


def _rows_that_do_not_reduce_stalls(rows) -> list[dict]:
    """The ``nextline``/``btb`` rows of a prefetch-study table whose fetch
    stalls are not strictly below the demand row of the same program and
    memory, where that demand row stalls at all."""
    demand = {
        (row["program"], row["memory"]): row["fetch_stalls"]
        for row in rows
        if row["policy"] == "demand"
    }
    return [
        row
        for row in rows
        if row["policy"] != "demand"
        and demand[(row["program"], row["memory"])]
        and row["fetch_stalls"] >= demand[(row["program"], row["memory"])]
    ]


def test_prefetching_strictly_reduces_stalls_on_loop_kernels():
    """Full traces of two loop-heavy kernels at a small cache: both
    prefetching policies hide part of every nonzero demand bill."""
    from dataclasses import asdict

    from repro.experiments.prefetch_study import run_prefetch_study

    result = run_prefetch_study(
        programs=("lloop01", "nasa7"),
        cache_bytes=256,
        clb_sizes=(4, 16),
        depths=(2, 4),
    )
    rows = [asdict(row) for row in result.rows]
    assert len(rows) == 2 * 3 * len(FETCH_POLICIES)
    assert _rows_that_do_not_reduce_stalls(rows) == []


def test_committed_prefetch_study_rows_strictly_reduce_stalls():
    rows = json.loads((RESULTS / "prefetch-study.json").read_text())["rows"]
    assert len(rows) == len(SIMULATION_PROGRAMS) * 3 * len(FETCH_POLICIES)
    assert _rows_that_do_not_reduce_stalls(rows) == []


def test_fetch_replay_fields_are_python_ints():
    """Neither backend leaks numpy scalars into a replay (they would
    pickle, compare and serialise differently)."""
    from repro.core.artifacts import get_study

    study = get_study("eightq")
    addresses = study.execution.trace.addresses[:20_000]
    engine = study.refill_engine("sc_dram", SystemConfig().decoder)
    unit = PrefetchingFetchUnit(
        256, "sc_dram", refill=engine, clb=CLB(entries=8), policy="nextline"
    )
    stalls = sum(unit.fetch(address) for address in addresses.tolist())
    replays = (
        unit.replay(stalls),
        simulate_fetch_stream(
            addresses,
            256,
            32,
            "sc_dram",
            refill=engine,
            clb=CLB(entries=8),
            policy="nextline",
        ),
        simulate_fetch_stream(addresses, 256, 32, EPROM, policy="nextline"),
    )
    for replay in replays:
        for field, value in vars(replay).items():
            expected = str if field == "policy" else int
            assert type(value) is expected, (field, type(value))


def test_miss_events_must_match_the_geometry():
    events = miss_events(np.arange(0, 4096, 4), 256, 32)
    with pytest.raises(ConfigurationError):
        simulate_fetch_stream(events, 512, 32, EPROM)


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
    """The core's bounded FIFO buffer (line -> decode finish cycle)."""

    @staticmethod
    def _core(depth: int):
        return build_core("nextline", depth, EPROM, 32)

    def test_fifo_eviction(self):
        core = self._core(depth=2)
        for line in (0, 10, 20):  # each miss prefetches its next line
            core.on_miss(0, line, lambda predicted: False)
        assert list(core.buffer) == [11, 21]
        assert (core.issued, core.useless) == (3, 1)
        assert core.wasted_traffic_bytes == 32

    def test_pop_removes(self):
        core = self._core(depth=2)
        core.on_miss(0, 5, lambda predicted: False)
        assert list(core.buffer) == [6]
        core.on_miss(1000, 6, lambda predicted: False)  # covered: pops line 6
        assert list(core.buffer) == [7]
        assert (core.useful, core.partial) == (1, 0)

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            self._core(depth=0)


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
