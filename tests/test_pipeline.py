"""Tests for the 5-stage pipeline timing subsystem (:mod:`repro.pipeline`).

Covers the golden hand-computed replay, the exact-vs-vectorized-timeline
bounds (property-tested over random programs and traces), the fetch
front end, the refill-engine index guards, the configuration plumbing,
and the ``ccrp-run`` CLI integration.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.direct_mapped import simulate_trace
from repro.ccrp import ProgramCompressor, RefillEngine
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.core.config import (
    SystemConfig,
    default_timing,
    set_default_timing,
    validate_timing,
)
from repro.errors import ConfigurationError, LATError
from repro.isa import Assembler
from repro.machine import Machine
from repro.memsys import EPROM
from repro.pipeline import (
    PIPELINE_FILL_CYCLES,
    BlockTable,
    FetchUnit,
    HazardModel,
    R2000_HAZARDS,
    miss_mask,
    replay_trace,
    simulate_pipeline,
)
from repro.pipeline.hazards import FP_BASE, HI, LO, register_effects
from repro.tools import run as run_tool

# ----------------------------------------------------------------------
# Golden hand-computed replay
# ----------------------------------------------------------------------

#: One load-use hazard (lw feeding addu: one bubble) and one taken
#: branch (bne on the known-nonzero $t0: one squashed fetch).
GOLDEN_SOURCE = """
main:
    addiu $t0, $zero, 64
    lw    $t1, 0($t0)
    addu  $t2, $t1, $t1
    bne   $t0, $zero, skip
    nop
    addiu $t3, $zero, 1
skip:
    addiu $v0, $zero, 10
    syscall
"""


@pytest.fixture(scope="module")
def golden():
    program = Assembler().assemble(GOLDEN_SOURCE)
    result = Machine(program).run()
    return program, result


class TestGoldenReplay:
    """Every cycle accounted by hand.

    Issue times: addiu@0; lw@1 ($t1 forwardable at 3); addu stalls one
    cycle (base 2, issues 3); bne@4; delay-slot nop@5; the taken branch
    squashes one fetch; addiu@7; syscall@8.  Seven instructions, one
    hazard stall, one branch stall, four fill cycles: 13 cycles total.
    """

    def test_trace_is_the_expected_stream(self, golden):
        program, result = golden
        assert result.trace.instruction_indices.tolist() == [0, 1, 2, 3, 4, 6, 7]

    def test_exact_counts(self, golden):
        program, result = golden
        replay = simulate_pipeline(
            program.instructions, result.trace.instruction_indices
        )
        assert replay.issue_cycles == 7
        assert replay.fill_cycles == PIPELINE_FILL_CYCLES == 4
        assert replay.hazard_stall_cycles == 1
        assert replay.branch_stall_cycles == 1
        assert replay.total_cycles == 13

    def test_timeline_matches_exact(self, golden):
        program, result = golden
        exact = simulate_pipeline(
            program.instructions, result.trace.instruction_indices
        )
        timeline = replay_trace(
            result.trace,
            program.instructions,
            block_table=BlockTable(program.instructions, program.text_base),
        )
        assert timeline.hazard_stall_cycles == exact.hazard_stall_cycles
        assert timeline.branch_stall_cycles == exact.branch_stall_cycles
        assert timeline.total_cycles == exact.total_cycles == 13

    def test_fetch_freezes_add_refill_cycles(self, golden):
        program, result = golden
        frontend = FetchUnit(cache_bytes=1024, memory=EPROM)
        replay = simulate_pipeline(
            program.instructions,
            result.trace.instruction_indices,
            frontend=frontend,
            text_base=program.text_base,
        )
        assert replay.fetch_misses == frontend.misses == 1
        assert replay.fetch_stall_cycles == EPROM.bytes_read_cycles(32)
        assert replay.total_cycles == 13 + replay.fetch_stall_cycles

    def test_zero_branch_penalty_model(self, golden):
        program, result = golden
        replay = simulate_pipeline(
            program.instructions,
            result.trace.instruction_indices,
            hazards=HazardModel(taken_branch_penalty=0),
        )
        assert replay.branch_stall_cycles == 0
        assert replay.total_cycles == 12


class TestScoreboardLatencies:
    def _replay(self, source: str):
        program = Assembler().assemble(source)
        stream = np.arange(len(program.instructions))
        return simulate_pipeline(program.instructions, stream)

    def test_mult_to_mfhi_interlock(self):
        replay = self._replay("main:\n    mult $t0, $t1\n    mfhi $t2\n")
        # mult issues at 0, HI readable at mult_latency; mfhi wants 1.
        assert replay.hazard_stall_cycles == R2000_HAZARDS.mult_latency - 1

    def test_div_is_longer_than_mult(self):
        replay = self._replay("main:\n    div $t0, $t1\n    mflo $t2\n")
        assert replay.hazard_stall_cycles == R2000_HAZARDS.div_latency - 1

    def test_spaced_consumer_absorbs_latency(self):
        replay = self._replay(
            "main:\n    lw $t1, 0($t0)\n    addu $t4, $t5, $t5\n"
            "    addu $t2, $t1, $t1\n"
        )
        assert replay.hazard_stall_cycles == 0

    def test_unpipelined_fp_serialises_independent_ops(self):
        replay = self._replay(
            "main:\n    add.s $f0, $f2, $f4\n    add.s $f6, $f8, $f10\n"
        )
        latency = 1 + R2000_HAZARDS.fp_extra_cycles["add.s"]
        assert replay.hazard_stall_cycles == latency - 1

    def test_dollar_zero_is_never_a_dependency(self):
        replay = self._replay(
            "main:\n    lw $zero, 0($t0)\n    addu $t1, $zero, $zero\n"
        )
        assert replay.hazard_stall_cycles == 0


class TestRegisterEffects:
    def _one(self, source: str):
        program = Assembler().assemble("main:\n    " + source + "\n")
        return register_effects(program.instructions[0])

    def test_load(self):
        effects = self._one("lw $t1, 4($t2)")
        assert effects.reads == (10,) and effects.writes == (9,)

    def test_store_reads_both(self):
        effects = self._one("sw $t1, 4($t2)")
        assert set(effects.reads) == {9, 10} and effects.writes == ()

    def test_mult_writes_hi_lo(self):
        effects = self._one("mult $t0, $t1")
        assert set(effects.writes) == {HI, LO}

    def test_jal_writes_ra(self):
        program = Assembler().assemble("main:\n    jal main\n    nop\n")
        assert register_effects(program.instructions[0]).writes == (31,)

    def test_double_precision_occupies_pair(self):
        effects = self._one("add.d $f0, $f2, $f4")
        assert set(effects.writes) == {FP_BASE, FP_BASE + 1}
        assert set(effects.reads) == {FP_BASE + 2, FP_BASE + 3, FP_BASE + 4, FP_BASE + 5}


# ----------------------------------------------------------------------
# Property tests: exact vs timeline bounds
# ----------------------------------------------------------------------

_REGS = tuple(f"$t{index}" for index in range(8))


@st.composite
def straight_line_source(draw):
    count = draw(st.integers(min_value=2, max_value=30))
    lines = []
    for _ in range(count):
        kind = draw(st.integers(min_value=0, max_value=3))
        a = draw(st.sampled_from(_REGS))
        b = draw(st.sampled_from(_REGS))
        c = draw(st.sampled_from(_REGS))
        if kind == 0:
            lines.append(f"addu {a}, {b}, {c}")
        elif kind == 1:
            lines.append(f"sll {a}, {b}, {draw(st.integers(0, 31))}")
        elif kind == 2:
            lines.append(f"lw {a}, 0({b})")
        else:
            lines.append(f"mult {b}, {c}")
    return "main:\n" + "".join(f"    {line}\n" for line in lines)


@settings(max_examples=30, deadline=None)
@given(source=straight_line_source())
def test_straight_line_exact_equals_timeline(source):
    """One basic block: the per-block clean-state reset loses nothing."""
    program = Assembler().assemble(source)
    stream = np.arange(len(program.instructions))
    exact = simulate_pipeline(program.instructions, stream)
    timeline = replay_trace(stream, program.instructions)
    assert timeline.hazard_stall_cycles == exact.hazard_stall_cycles
    assert timeline.branch_stall_cycles == exact.branch_stall_cycles == 0
    assert timeline.total_cycles == exact.total_cycles
    assert exact.total_cycles >= len(stream) + PIPELINE_FILL_CYCLES


@settings(max_examples=30, deadline=None)
@given(source=straight_line_source(), data=st.data())
def test_random_stream_exact_bounds_timeline(source, data):
    """Arbitrary dynamic streams: exact >= timeline, branch terms equal.

    The timeline resets hazard state at block boundaries, so carried
    latencies can only *add* stalls to the exact replay — and the issue
    cycles are the unconditional floor of both.
    """
    program = Assembler().assemble(source)
    count = len(program.instructions)
    stream = np.array(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=count - 1),
                min_size=1,
                max_size=120,
            )
        ),
        dtype=np.int64,
    )
    exact = simulate_pipeline(program.instructions, stream)
    timeline = replay_trace(stream, program.instructions)
    assert exact.branch_stall_cycles == timeline.branch_stall_cycles
    assert exact.hazard_stall_cycles >= timeline.hazard_stall_cycles
    assert exact.total_cycles >= timeline.total_cycles
    assert exact.total_cycles >= len(stream) + PIPELINE_FILL_CYCLES


def test_real_workload_exact_bounds_timeline():
    """The bound holds on a real multi-block execution, not just fuzz."""
    from repro.workloads.suite import load

    for name in ("eightq", "lloop01"):
        workload = load(name)
        trace = workload.run().trace
        indices = trace.instruction_indices[:50_000]
        exact = simulate_pipeline(workload.program.instructions, indices)
        timeline = replay_trace(indices, workload.program.instructions)
        assert exact.branch_stall_cycles == timeline.branch_stall_cycles, name
        assert exact.hazard_stall_cycles >= timeline.hazard_stall_cycles, name


def test_redirect_into_current_block_matches_exact():
    """Regression: a redirect that re-enters the current block must split
    the timeline's event, not extend it.

    Program ``[addu; lw; addu]`` with stream ``[0, 1, 1]``: the load's
    consumer never issues, so the exact replay charges no load-use
    bubble.  The leader-only segmentation misread the stream as one full
    straight-line pass and charged one — breaking the documented
    timeline-is-a-lower-bound contract (``docs/modeling_notes.md`` §15).
    """
    program = Assembler().assemble(
        "main:\n    addu $1, $2, $3\n    lw $4, 0($5)\n    addu $6, $4, $7\n"
    )
    stream = np.array([0, 1, 1], dtype=np.int64)
    exact = simulate_pipeline(program.instructions, stream)
    timeline = replay_trace(stream, program.instructions)
    assert exact.hazard_stall_cycles == timeline.hazard_stall_cycles == 0
    assert exact.branch_stall_cycles == timeline.branch_stall_cycles == 1
    # The genuine load-use pass still charges its bubble on both paths.
    full = np.array([0, 1, 2], dtype=np.int64)
    exact_full = simulate_pipeline(program.instructions, full)
    timeline_full = replay_trace(full, program.instructions)
    assert exact_full.hazard_stall_cycles == timeline_full.hazard_stall_cycles == 1


def test_out_of_range_stream_rejected(golden):
    program, _ = golden
    with pytest.raises(ConfigurationError):
        simulate_pipeline(program.instructions, np.array([0, 99]))
    with pytest.raises(ConfigurationError):
        replay_trace(np.array([0, 99]), program.instructions)


def test_empty_stream_is_zero_cycles(golden):
    program, _ = golden
    assert simulate_pipeline(program.instructions, np.array([], dtype=np.int64)).total_cycles == 0
    assert replay_trace(np.array([], dtype=np.int64), program.instructions).total_cycles == 0


# ----------------------------------------------------------------------
# Fetch front end
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=4095).map(lambda word: word * 4),
        min_size=1,
        max_size=300,
    ),
    cache_bytes=st.sampled_from((128, 256, 1024)),
)
def test_miss_mask_matches_cache_simulator(addresses, cache_bytes):
    stream = np.array(addresses, dtype=np.uint32)
    mask = miss_mask(stream, cache_bytes)
    assert int(mask.sum()) == simulate_trace(stream, cache_bytes).misses


def test_fetch_unit_matches_cache_simulator(golden):
    program, result = golden
    addresses = result.trace.addresses
    unit = FetchUnit(cache_bytes=256, memory=EPROM)
    total = sum(unit.fetch(int(address)) for address in addresses)
    stats = simulate_trace(addresses, 256)
    assert unit.misses == stats.misses
    assert total == stats.misses * EPROM.bytes_read_cycles(32)
    unit.reset()
    assert unit.misses == 0 and unit.accesses == 0


# ----------------------------------------------------------------------
# Refill-engine index guards (satellite: explicit empty/bounds handling)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    rng = random.Random(7)
    text = bytes(
        rng.choices(range(256), weights=[400] + [4] * 63 + [1] * 192, k=16 * 32)
    )
    code = HuffmanCode.from_frequencies(
        byte_histogram(text), max_length=16, cover_all_symbols=True
    )
    image = ProgramCompressor(code).compress(text)
    return RefillEngine(image, EPROM)


class TestRefillEngineGuards:
    def test_empty_stream_costs_zero(self, engine):
        empty = np.array([], dtype=np.int64)
        assert engine.ccrp_miss_cycles(empty) == 0
        assert engine.ccrp_fetched_bytes(empty) == 0

    def test_last_line_is_valid(self, engine):
        last = len(engine.ccrp_refill_cycles) - 1
        stream = np.array([last])
        assert engine.ccrp_miss_cycles(stream) == int(engine.ccrp_refill_cycles[last])
        assert engine.ccrp_fetched_bytes(stream) > 0

    def test_negative_index_rejected(self, engine):
        with pytest.raises(LATError, match="-1"):
            engine.ccrp_miss_cycles(np.array([0, -1]))

    def test_one_past_the_end_rejected(self, engine):
        count = len(engine.ccrp_refill_cycles)
        with pytest.raises(LATError, match=str(count)):
            engine.ccrp_fetched_bytes(np.array([count]))

    def test_non_vector_input_rejected(self, engine):
        with pytest.raises(LATError, match="one-dimensional"):
            engine.ccrp_miss_cycles(np.array([[0, 1]]))

    def test_negative_miss_count_rejected(self, engine):
        with pytest.raises(LATError):
            engine.baseline_miss_cycles(-1)


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------


class TestTimingConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="warp"):
            validate_timing("warp")
        with pytest.raises(ConfigurationError):
            SystemConfig(timing="warp")

    def test_critical_word_first_needs_pipeline(self):
        with pytest.raises(ConfigurationError, match="critical-word"):
            SystemConfig(critical_word_first=True, timing="additive")
        config = SystemConfig(timing="pipeline", critical_word_first=True)
        assert config.critical_word_first

    def test_default_timing_is_process_wide(self):
        assert default_timing() == "additive"
        try:
            set_default_timing("pipeline")
            assert SystemConfig().timing == "pipeline"
        finally:
            set_default_timing("additive")
        assert SystemConfig().timing == "additive"

    def test_set_default_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            set_default_timing("warp")
        assert default_timing() == "additive"


def test_study_pipeline_backend_reports_breakdown():
    """End-to-end: metrics() under both backends on the straight-line
    validation program (satellite acceptance: agreement within the fill)."""
    from repro.core.study import ProgramStudy
    from repro.experiments.pipeline_validation import straight_line_workload

    study = ProgramStudy(straight_line_workload())
    additive = study.metrics(SystemConfig(timing="additive"))
    pipeline = study.metrics(SystemConfig(timing="pipeline"))
    assert pipeline.ccrp.timing == "pipeline"
    breakdown = pipeline.ccrp.stall_breakdown
    assert set(breakdown) == {"hazard", "branch", "fetch", "data", "covered"}
    assert breakdown["hazard"] == 0  # hazard-free by construction
    assert breakdown["covered"] == 0  # demand policy hides nothing
    divergence = pipeline.ccrp.total_cycles - additive.ccrp.total_cycles
    assert abs(divergence) <= PIPELINE_FILL_CYCLES


# ----------------------------------------------------------------------
# ccrp-run CLI integration
# ----------------------------------------------------------------------


class TestRunCli:
    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "golden.s"
        path.write_text(GOLDEN_SOURCE)
        return path

    def test_pipeline_report_printed(self, source_file, capsys):
        assert run_tool.main([str(source_file), "--timing", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "[pipeline @" in out
        assert "1 hazard" in out and "1 branch" in out

    def test_metrics_file_written(self, source_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        code = run_tool.main(
            [str(source_file), "--timing", "pipeline", "--metrics", str(metrics)]
        )
        assert code == 0
        import json

        payload = json.loads(metrics.read_text())
        assert payload["pipeline"]["hazard"] == 1
        assert payload["pipeline"]["branch"] == 1

    def test_unknown_timing_exits_nonzero(self, source_file, capsys):
        assert run_tool.main([str(source_file), "--timing", "warp"]) == 1
        assert "unknown timing backend" in capsys.readouterr().err

    def test_unknown_memory_exits_nonzero(self, source_file, capsys):
        code = run_tool.main(
            [str(source_file), "--timing", "pipeline", "--memory", "flash"]
        )
        assert code == 1
        assert "unknown memory model" in capsys.readouterr().err

    def test_bad_cache_size_exits_nonzero(self, source_file, capsys):
        code = run_tool.main([str(source_file), "--cache-bytes", "8"])
        assert code == 1
        assert "cache-bytes" in capsys.readouterr().err
