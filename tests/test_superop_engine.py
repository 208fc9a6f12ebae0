"""The executor against an independent reference interpreter.

``tests/mips_oracle.py`` fetches, decodes and executes one instruction
at a time from its own semantics table.  The executor — fused superops,
per-instruction template functions, single steps — must be
*indistinguishable* from it: same trace addresses, execution counts,
registers, output, stall cycles, exit code, and data accesses, on every
suite workload, on random generated programs, when the instruction
budget truncates execution mid-block, and instruction by instruction
for every mnemonic of the ISA.
"""

from __future__ import annotations

import math
import random
import struct
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mips_oracle import Oracle
from repro.core import artifacts
from repro.errors import ExecutionError
from repro.isa import Assembler
from repro.isa.assembler import AssembledProgram
from repro.isa.decoding import decode
from repro.isa.encoding import encode, encode_program
from repro.isa.instruction import NOP, Instruction
from repro.isa.opcodes import SPECS, Category
from repro.machine import BlockTrace, ExecutionTrace, Machine, executor
from repro.workloads.codegen import FP_PERSONALITY, CodeGenerator
from repro.workloads.suite import SIMULATION_PROGRAMS, load


def _run_both(program, max_instructions: int, stop_at_limit: bool = True):
    """The program under the oracle and the executor, disk cache bypassed."""
    reference = Oracle(program).run(max_instructions, stop_at_limit)
    with artifacts.cache_disabled():
        result = Machine(program).run(
            max_instructions=max_instructions, stop_at_limit=stop_at_limit
        )
    return reference, result


def _assert_identical(reference: Oracle, result) -> None:
    assert np.array_equal(reference.addresses, result.trace.addresses)
    assert np.array_equal(
        reference.execution_counts(), result.trace.execution_counts()
    )
    assert tuple(reference.r) == result.registers
    assert "".join(reference.output) == result.output
    assert reference.stall_cycles == result.stall_cycles
    assert reference.exit_code == result.exit_code
    assert len(reference.trace) == result.instructions_executed
    assert reference.data_accesses == result.data_accesses


# ----------------------------------------------------------------------
# The workload suite
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "cap"),
    [pytest.param(name, 120_000, id=name) for name in SIMULATION_PROGRAMS]
    # ``None``: run to the exit syscall (464,842 instructions), not a cap.
    + [pytest.param("lloop01", None, id="lloop01-complete")],
)
def test_suite_workloads_equivalent(name, cap):
    reference, result = _run_both(
        load(name).program,
        max_instructions=cap or 1_000_000,
        stop_at_limit=cap is not None,
    )
    _assert_identical(reference, result)
    if cap is None:
        assert result.instructions_executed == 464_842


@pytest.mark.parametrize("cap", [1, 7, 101, 4_096, 50_001])
def test_mid_block_truncation_equivalent(cap):
    """stop_at_limit must cut the trace at the same instruction."""
    reference, result = _run_both(load("lloop01").program, max_instructions=cap)
    assert result.instructions_executed == cap
    _assert_identical(reference, result)


def test_limit_without_stop_raises_in_both():
    program = load("lloop01").program
    with pytest.raises(ExecutionError) as expected:
        Oracle(program).run(1_000, stop_at_limit=False)
    with artifacts.cache_disabled(), pytest.raises(ExecutionError) as raised:
        Machine(program).run(max_instructions=1_000, stop_at_limit=False)
    assert str(raised.value) == str(expected.value)


def test_backings_differ_but_results_match():
    """The oracle records flat; the executor, blocks that expand to it."""
    reference, result = _run_both(load("lloop01").program, max_instructions=20_000)
    assert result.trace.blocks is not None
    assert len(result.trace) == len(reference.trace)  # from block lengths
    assert result.trace._addresses is None
    assert result.trace.blocks.materialize_addresses().tolist() == reference.trace


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
    reference, result = _run_both(program, max_instructions=60_000)
    _assert_identical(reference, result)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cap=st.integers(min_value=1, max_value=5_000),
)
def test_random_programs_truncated_equivalent(seed, cap):
    """Budget exhaustion anywhere — even mid-block — stays identical."""
    program = _generated_program(seed, "pool")
    reference, result = _run_both(program, max_instructions=cap)
    _assert_identical(reference, result)


# ----------------------------------------------------------------------
# Every mnemonic, alone, from random state (hypothesis)
# ----------------------------------------------------------------------

_EXIT = "li $v0, 10\nsyscall\n"

#: Where drawn memory operands live: clear of the text at 0.
_WINDOW = 0x200000


def _fused(run):
    """``run()`` with every block it dispatches fused from the start.

    A first call, with blocks fusing after one dispatch, leaves their
    superops in the in-process program cache; the second call finds them
    there and fuses each block at its first dispatch, as a machine does
    when another machine has run the program before.
    """
    executor._PROGRAM_CACHE.clear()
    saved = executor._FUSE_INSTRUCTIONS, executor._FUSE_MIN_EXECUTIONS
    executor._FUSE_INSTRUCTIONS, executor._FUSE_MIN_EXECUTIONS = 0, 1
    try:
        run()
    finally:
        executor._FUSE_INSTRUCTIONS, executor._FUSE_MIN_EXECUTIONS = saved
    return run()


#: Register numbers drawn often, so operands collide (``rd == rs``,
#: ``fs == ft``) and ``$zero``/``$ra`` come up.
_REGISTER = st.one_of(st.sampled_from([0, 1, 2, 31]), st.integers(0, 31))


def _draw_instruction(data, mnemonic: str) -> Instruction:
    spec = next(spec for spec in SPECS if spec.mnemonic == mnemonic)
    fields = {
        name: data.draw(_REGISTER, label=name) for name in ("rs", "rt", "rd", "shamt")
    }
    if "d" in mnemonic.split(".")[1:]:  # double pairs start even
        fields = {name: value & ~1 for name, value in fields.items()}
    # Small offsets keep some branch targets inside the text.
    fields["imm"] = data.draw(
        st.one_of(st.integers(-4, 4), st.integers(-0x8000, 0x7FFF)), label="imm"
    )
    fields["target"] = data.draw(st.integers(0, 15), label="target")
    # Decode the encoding, so the executor runs what the oracle decodes.
    return decode(encode(Instruction(spec, **fields)))


#: Register values worth hitting often: signs, wraps, and zero.
_EDGES = (0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF)

#: FP values worth hitting often: zeros of both signs, units,
#: infinities, NaN, the binary32 limit and a double denormal.
_FP_EDGES = (0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan, 3.4e38, 5e-324)

#: FP words worth hitting often: NaNs of both signs, quiet and
#: signalling, with payloads, as singles and as the high words of
#: doubles (whose low word then decides signalling NaN or infinity).
_NAN_WORDS = (0x7FC00000, 0xFFC00001, 0x7F800001, 0xFFBFFFFF, 0x7FF80000, 0xFFF00000, 0x7FF00001)


def _draw_state(data, instruction: Instruction) -> dict:
    """Registers, FP registers, HI/LO, the FP flag and a memory window.

    One drawn seed fills them (cheaper than drawing each word), half
    the words from :data:`_EDGES`.  FP registers hold patterns (half
    from :data:`_NAN_WORDS`), doubles, or singles, each half the time
    from :data:`_FP_EDGES`.
    """
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))

    def word():
        return rng.choice(_EDGES) if rng.random() < 0.5 else rng.getrandbits(32)

    def value():
        return rng.choice(_FP_EDGES) if rng.random() < 0.5 else rng.uniform(-1e6, 1e6)

    regs = [0] + [word() for _ in range(31)]
    if instruction.mnemonic == "syscall":
        regs[2] = rng.choice([1, 4, 10, 11, 12])
    kind = rng.choice(["patterns", "doubles", "singles"])
    if kind == "patterns":
        fpr = [
            rng.choice(_NAN_WORDS) if rng.random() < 0.5 else rng.getrandbits(32)
            for _ in range(32)
        ]
    elif kind == "doubles":
        fpr = []
        for _ in range(16):
            fpr += struct.unpack(">II", struct.pack(">d", value()))
    else:
        fpr = [struct.unpack(">I", struct.pack(">f", value()))[0] for _ in range(32)]
    address = _WINDOW + rng.randrange(64)
    if instruction.spec.category in (
        Category.LOAD, Category.STORE, Category.FP_LOAD, Category.FP_STORE
    ) and instruction.rs:
        regs[instruction.rs] = (address - instruction.imm_signed) & 0xFFFFFFFF
    return {
        "regs": regs,
        "fpr": fpr,
        "hilo": [word(), word()],
        "fcc": rng.randrange(2),
        "memory": rng.randbytes(72),
    }


def _program(instruction: Instruction) -> AssembledProgram:
    # One block: a straight-line instruction and three nops, or a
    # transfer with its slot (the nops after it start the next block).
    instructions = (instruction, NOP, NOP, NOP)
    return AssembledProgram(
        text=encode_program(list(instructions)),
        data=b"",
        text_base=0,
        data_base=0x400000,
        labels={},
        instructions=instructions,
    )


_ERRORS = (ExecutionError, OverflowError, ValueError)


#: Two-operand FP arithmetic: the only instructions that choose between NaNs.
_NAN_CHOOSING = {f"{op}.{fmt}" for op in ("add", "sub", "mul", "div") for fmt in "sd"}


def _fp_view(words, instruction: Instruction) -> tuple:
    """FP registers, bit for bit but for a NaN result of ``instruction``.

    Which of two NaN operands a Python float operation keeps depends on
    whether CPython has specialised that bytecode yet, not on the
    executor, so in the destination of :data:`_NAN_CHOOSING` arithmetic
    only NaN-ness is compared.  Moves, loads, ``abs``, ``neg`` and
    conversions choose no NaN and compare exactly.
    """
    view = list(words)
    if instruction.mnemonic in _NAN_CHOOSING:
        fd = instruction.shamt
        if instruction.mnemonic.endswith(".d"):
            high, low = view[fd], view[fd + 1]
            if high & 0x7FF00000 == 0x7FF00000 and (high & 0xFFFFF or low):
                view[fd] = view[fd + 1] = "nan"
        elif view[fd] & 0x7F800000 == 0x7F800000 and view[fd] & 0x7FFFFF:
            view[fd] = "nan"
    return tuple(view)


def _machine_outcome(program, state: dict, cap: int) -> tuple:
    """The executor's error, or its final state and report, from ``state``."""
    machine = Machine(program)
    machine.regs[:] = state["regs"]
    machine.fpr[:] = state["fpr"]
    machine.hilo[:] = state["hilo"]
    machine.fcc[0] = state["fcc"]
    memory = machine.memory.data
    memory[_WINDOW - 4 : _WINDOW + 68] = state["memory"]
    try:
        result = machine.run(max_instructions=cap, stop_at_limit=True)
    except _ERRORS as exc:
        return type(exc).__name__, str(exc)
    fpr = _fp_view(machine.fpr, program.instructions[0])
    return (
        (tuple(machine.regs), fpr, tuple(machine.hilo), machine.fcc[0]),
        bytes(memory[_WINDOW - 4 : _WINDOW + 68]),
        (result.output, result.exit_code, result.data_accesses),
        result.trace.addresses.tolist(),
    )


def _oracle_outcome(program, state: dict, cap: int) -> tuple:
    oracle = Oracle(program)
    oracle.r[:] = state["regs"]
    oracle.f[:] = state["fpr"]
    oracle.hi, oracle.lo = state["hilo"]
    oracle.cc = state["fcc"]
    oracle.mem[_WINDOW - 4 : _WINDOW + 68] = state["memory"]
    try:
        oracle.run(cap, stop_at_limit=True)
    except _ERRORS as exc:
        return type(exc).__name__, str(exc)
    fpr = _fp_view(oracle.f, program.instructions[0])
    return (
        (tuple(oracle.r), fpr, (oracle.hi, oracle.lo), oracle.cc),
        bytes(oracle.mem[_WINDOW - 4 : _WINDOW + 68]),
        ("".join(oracle.output), oracle.exit_code, oracle.data_accesses),
        oracle.trace,
    )


@pytest.mark.parametrize("mnemonic", [spec.mnemonic for spec in SPECS])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_each_mnemonic_matches_the_oracle(mnemonic, data):
    """Per-instruction functions and fused superops against the oracle.

    A straight-line instruction single-steps (a budget of one inside a
    four-instruction block), then runs fused in the whole block; the
    three nops after it change nothing but the trace.  A control
    transfer runs with its slot and one more instruction, which shows
    the next pc: first through per-instruction functions (a cold
    block's warmup), then fused.
    """
    instruction = _draw_instruction(data, mnemonic)
    state = _draw_state(data, instruction)
    program = _program(instruction)
    single, fused = (3, 3) if instruction.spec.is_control_transfer else (1, 4)
    expected = _oracle_outcome(program, state, fused)
    with artifacts.cache_disabled():
        executor._PROGRAM_CACHE.clear()  # nothing fused yet
        stepped = _machine_outcome(program, state, single)
        superop = _fused(lambda: _machine_outcome(program, state, fused))
    assert superop == expected
    if len(expected) == 4:  # ran, or exited: cut the trace to the budget
        expected = expected[:3] + (expected[3][:single],)
    assert stepped == expected


def test_all_90_mnemonics_compile_as_templates():
    assert len({spec.mnemonic for spec in SPECS}) == 90
    for spec in SPECS:
        assert executor._template(Instruction(spec), 0) is not None


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    first=st.tuples(*[_REGISTER] * 4, st.integers(-0x8000, 0x7FFF)),
    second=st.tuples(*[_REGISTER] * 4, st.integers(-0x8000, 0x7FFF)),
)
def test_template_source_depends_only_on_the_shape(spec, first, second):
    """A template is compiled once per shape (mnemonic, rd/rt zero), so
    its source must not change with any other operand value."""

    def lines(fields, pc):
        rs, rt, rd, shamt, imm = fields
        instruction = Instruction(spec, rs=rs, rt=rt, rd=rd, shamt=shamt, imm=imm)
        spell = executor._Spell(instruction, pc, literal=False)
        return executor._instruction_lines(
            instruction, spell, executor._ForwardState(forward=False)
        )

    # Same shape: copy the zero-ness of rd and rt.
    rs, rt, rd, shamt, imm = second
    rt = 0 if first[1] == 0 else rt or 1
    rd = 0 if first[2] == 0 else rd or 1
    assert lines(first, 0x40) == lines((rs, rt, rd, shamt, imm), 0x1234)


@pytest.mark.parametrize(
    "source",
    [
        # An and-link branch on $ra reads the link it just wrote.
        "li $ra, -4\nbltzal $ra, away\nnop\nmove $t0, $ra\naway: nop\n",
        "li $ra, -4\nbgezal $ra, away\nnop\nli $t1, 1\naway: nop\n",
        # FP division by zero: the sign follows the dividend only.
        "li $t0, -3\nmtc1 $t0, $f2\ncvt.d.w $f2, $f2\nmtc1 $zero, $f4\n"
        "mtc1 $zero, $f5\ndiv.d $f6, $f2, $f4\nmfc1 $t2, $f6\nmfc1 $t3, $f7\n"
        "neg.d $f4, $f4\ndiv.d $f6, $f2, $f4\nmfc1 $t4, $f6\n"
        "cvt.s.d $f2, $f2\ndiv.s $f8, $f2, $f4\nmfc1 $t5, $f8\n",
        # jalr through the register it links: the target is read first.
        "la $t9, there\njalr $t9, $t9\nnop\nthere: move $t0, $t9\n",
    ],
    ids=["bltzal-ra", "bgezal-ra", "fp-div-zero", "jalr-same-register"],
)
def test_conventions_at_the_edges(source):
    program = Assembler().assemble(source + _EXIT)
    executor._PROGRAM_CACHE.clear()
    _assert_identical(*_run_both(program, max_instructions=100))
    _assert_identical(*_fused(lambda: _run_both(program, max_instructions=100)))


def test_exit_in_a_self_loop_delay_slot_counts_exactly():
    """A loop whose slot exits must end its dispatch there: a generated
    loop would run the exit mid-dispatch and lose the iteration count."""
    program = Assembler().assemble(
        "li $t0, 5\nli $v0, 10\nli $a0, 7\n"
        "loop: addiu $t0, $t0, -1\nbnez $t0, loop\nsyscall\n"
    )
    reference, result = _fused(lambda: _run_both(program, max_instructions=100))
    _assert_identical(reference, result)
    assert result.exit_code == 7


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------

def _bad_emitter(monkeypatch, mnemonic: str, literal_only: bool) -> None:
    """Make ``mnemonic`` emit source that does not compile."""
    real = executor._emit_instruction

    def emit(instruction, spell, fwd):
        if instruction.mnemonic == mnemonic and (spell._literal or not literal_only):
            return ["r[ = 1"]
        return real(instruction, spell, fwd)

    monkeypatch.setattr(executor, "_emit_instruction", emit)
    monkeypatch.setattr(executor, "_TEMPLATES", {})
    monkeypatch.setattr(executor, "_PROGRAM_CACHE", OrderedDict())


def test_template_that_does_not_compile_names_pc_and_mnemonic(monkeypatch):
    _bad_emitter(monkeypatch, "xor", literal_only=False)
    program = Assembler().assemble("li $t0, 1\nxor $t1, $t0, $t0\n" + _EXIT)
    with artifacts.cache_disabled():
        with pytest.raises(ExecutionError, match=r"cannot compile xor at pc 0x4"):
            Machine(program).run()


def test_superop_that_does_not_compile_names_pc_and_mnemonic(monkeypatch):
    _bad_emitter(monkeypatch, "xor", literal_only=True)
    monkeypatch.setattr(executor, "_FUSE_INSTRUCTIONS", 0)
    monkeypatch.setattr(executor, "_FUSE_MIN_EXECUTIONS", 1)
    program = Assembler().assemble(
        "li $t0, 40\nloop: xor $t1, $t0, $t0\naddiu $t0, $t0, -1\n"
        "bnez $t0, loop\nnop\n" + _EXIT
    )
    with artifacts.cache_disabled():
        with pytest.raises(ExecutionError, match=r"cannot compile xor at pc 0x4"):
            Machine(program).run()


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
