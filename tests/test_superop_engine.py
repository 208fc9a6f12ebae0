"""Engine equivalence: the basic-block superop engine vs the reference
per-instruction interpreter.

The superop engine must be *indistinguishable* from the reference loop —
same trace bytes, same registers, same output, same stall cycles — on
every workload, on random generated programs, and when the instruction
budget truncates execution mid-block.  These tests are the contract that
lets the engine be the default.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import artifacts
from repro.errors import ExecutionError
from repro.isa import Assembler
from repro.machine import BlockTrace, ExecutionTrace, Machine
from repro.workloads.codegen import FP_PERSONALITY, CodeGenerator
from repro.workloads.suite import SIMULATION_PROGRAMS, load


def _run_both(program, max_instructions: int, stop_at_limit: bool = True):
    """The same program under both engines, disk cache bypassed."""
    with artifacts.cache_disabled():
        reference = Machine(program, block_mode=False).run(
            max_instructions=max_instructions, stop_at_limit=stop_at_limit
        )
        blocks = Machine(program, block_mode=True).run(
            max_instructions=max_instructions, stop_at_limit=stop_at_limit
        )
    return reference, blocks


def _assert_identical(reference, blocks) -> None:
    assert np.array_equal(reference.trace.addresses, blocks.trace.addresses)
    assert np.array_equal(
        reference.trace.execution_counts(), blocks.trace.execution_counts()
    )
    assert reference.registers == blocks.registers
    assert reference.output == blocks.output
    assert reference.stall_cycles == blocks.stall_cycles
    assert reference.exit_code == blocks.exit_code
    assert reference.instructions_executed == blocks.instructions_executed
    assert reference.data_accesses == blocks.data_accesses


# ----------------------------------------------------------------------
# The workload suite, both engines
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "cap"),
    [pytest.param(name, 120_000, id=name) for name in SIMULATION_PROGRAMS]
    # ``None``: run to the exit syscall (464,842 instructions), not a cap.
    + [pytest.param("lloop01", None, id="lloop01-complete")],
)
def test_suite_workloads_equivalent(name, cap):
    reference, blocks = _run_both(
        load(name).program,
        max_instructions=cap or 1_000_000,
        stop_at_limit=cap is not None,
    )
    _assert_identical(reference, blocks)


@pytest.mark.parametrize("cap", [1, 7, 101, 4_096, 50_001])
def test_mid_block_truncation_equivalent(cap):
    """stop_at_limit must cut the trace at the same instruction."""
    program = load("lloop01").program
    reference, blocks = _run_both(program, max_instructions=cap)
    assert reference.instructions_executed == cap
    _assert_identical(reference, blocks)


def test_limit_without_stop_raises_in_both():
    program = load("lloop01").program
    for block_mode in (False, True):
        with artifacts.cache_disabled():
            with pytest.raises(ExecutionError):
                Machine(program, block_mode=block_mode).run(
                    max_instructions=1_000, stop_at_limit=False
                )


def test_backings_differ_but_results_match():
    """The reference engine records flat; the superop engine, blocks."""
    reference, blocks = _run_both(load("lloop01").program, max_instructions=20_000)
    assert reference.trace.blocks is None
    assert blocks.trace.blocks is not None
    assert len(reference.trace) == len(blocks.trace)


# ----------------------------------------------------------------------
# Random generated programs (hypothesis)
# ----------------------------------------------------------------------


def _generated_program(seed: int, flavor: str):
    generator = CodeGenerator(f"superop-eq-{flavor}-{seed}")
    if flavor == "pool":
        source = generator.pool_program(
            functions=4, iterations=40, body_loops=2, body_words=24
        )
    else:
        generator.personality = FP_PERSONALITY
        source = generator.straightline_fp_program(block_words=48, iterations=6)
    return Assembler().assemble(source)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), flavor=st.sampled_from(["pool", "fp"]))
def test_random_programs_equivalent(seed, flavor):
    program = _generated_program(seed, flavor)
    reference, blocks = _run_both(program, max_instructions=60_000)
    _assert_identical(reference, blocks)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cap=st.integers(min_value=1, max_value=5_000),
)
def test_random_programs_truncated_equivalent(seed, cap):
    """Budget exhaustion anywhere — even mid-block — stays identical."""
    program = _generated_program(seed, "pool")
    reference, blocks = _run_both(program, max_instructions=cap)
    _assert_identical(reference, blocks)


# ----------------------------------------------------------------------
# BlockTrace unit behaviour
# ----------------------------------------------------------------------


def _toy_trace() -> BlockTrace:
    return BlockTrace(
        events=np.array([0, 1, 0, 2, 1, 1], dtype=np.int32),
        block_addresses=(
            np.array([0, 4], dtype=np.uint32),
            np.array([8], dtype=np.uint32),
            np.array([12, 16, 20], dtype=np.uint32),
        ),
        text_base=0,
        text_size=24,
    )


def test_blocktrace_materializes_event_order():
    trace = _toy_trace()
    expected = [0, 4, 8, 0, 4, 12, 16, 20, 8, 8]
    assert trace.materialize_addresses().tolist() == expected
    assert len(trace) == len(expected)


def test_blocktrace_counts_without_materializing():
    trace = _toy_trace()
    flat = trace.materialize_addresses()
    by_bincount = np.bincount(flat >> 2, minlength=6)
    assert trace.execution_counts(6).tolist() == by_bincount.tolist()


def test_blocktrace_empty():
    trace = BlockTrace(
        events=np.empty(0, dtype=np.int32),
        block_addresses=(),
        text_base=0,
        text_size=0,
    )
    assert len(trace) == 0
    assert trace.materialize_addresses().size == 0
    assert trace.execution_counts(4).tolist() == [0, 0, 0, 0]


def test_execution_trace_lazy_backing_queries():
    trace = ExecutionTrace(blocks=_toy_trace(), text_base=0, text_size=24)
    assert len(trace) == 10  # answered from block lengths, no materialise
    assert trace._addresses is None
    lines = trace.line_addresses(32)
    assert trace._addresses is not None  # materialised on demand
    assert lines.tolist() == [0] * 10
    assert trace.instruction_indices.tolist() == [0, 1, 2, 0, 1, 3, 4, 5, 2, 2]
