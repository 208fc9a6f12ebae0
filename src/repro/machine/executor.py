"""Functional MIPS-I simulator with branch delay slots.

The :class:`Machine` runs an assembled program and records the dynamic
instruction-address trace.  This is the reproduction's stand-in for
running real DECstation binaries under ``pixie``.

Each instruction's semantics are written once, as Python source:
:func:`_emit_instruction` for straight-line instructions and
:func:`_emit_terminator` for control transfers.  That source runs in
two forms.  A hot basic block is *fused* into one generated function
(a "superop") with every operand written as a literal.  Everything
else -- cold blocks, single steps -- calls per-instruction functions
instantiated from *templates*: the same source with operands written as
names, compiled once per instruction shape and bound per instruction.

Architectural conventions:

* 32 general-purpose registers (``$zero`` hard-wired), HI/LO, 32 FP
  registers holding raw 32-bit patterns (doubles occupy even/odd pairs,
  even register = most-significant word, matching big-endian memory).
* Branch delay slots are executed exactly as on the R2000.
* ``jal``/``jalr``/``bltzal``/``bgezal`` link to the instruction after
  the delay slot (``bltzal``/``bgezal`` link whether or not they branch).
* Arithmetic overflow wraps (the trapping variants are treated like their
  unsigned twins; none of the workloads relies on overflow traps).
  ``div`` truncates toward zero; a zero divisor leaves HI = LO = 0.
* Addresses wrap to 24 bits.  ``lw``/``sw``/``lh``/``lhu``/``sh``/
  ``lwc1``/``swc1`` raise :class:`~repro.errors.ExecutionError` when
  misaligned; every load and store counts one data access.
* FP arithmetic is Python's double arithmetic; single-precision results
  round through binary32 (and raise ``OverflowError`` past its range).
  FP division by zero gives +inf when the dividend is >= 0, else -inf.
  ``cvt.w`` truncates toward zero.  Which NaN an operation on two NaNs
  returns is the host's choice.
* The text is decoded once at load: stores into it do not change the
  instructions that run.  Control reaching a pc outside the text, or a
  misaligned one (``jr``/``jalr`` to a register value), raises
  :class:`~repro.errors.ExecutionError`.
* SPIM-style syscalls: ``$v0`` = 1 print_int, 4 print_string,
  11 print_char, 10 exit (exit code ``$a0``); any other service and
  ``break`` raise :class:`~repro.errors.ExecutionError`.
"""

from __future__ import annotations

import builtins
import marshal
import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass
from types import CodeType, FunctionType

import numpy as np

from repro.errors import ExecutionError
from repro.isa.assembler import AssembledProgram
from repro.isa.cfg import find_leaders
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Category
from repro.machine.memory import Memory
from repro.machine.stalls import R2000_STALLS, StallModel
from repro.machine.tracing import BlockTrace, ExecutionTrace

#: Default cap on executed instructions (the paper's traces are 10K-1M).
DEFAULT_MAX_INSTRUCTIONS = 4_000_000

#: Initial stack pointer: top of the 24-bit space, word aligned.
STACK_TOP = 0xFFFFF0

_WORD_MASK = 0xFFFFFFFF
_MEM_MASK = (1 << 24) - 1

#: Dispatch modes of a block's record (how the run loop treats it).
_M_FALL = 0  # warmup, fall-through block: per-instruction functions
_M_INLINE = 1  # fused: the superop returns the next pc
_M_BRANCH = 2  # warmup, branch block: then its branch and slot functions
_M_LOOP = 3  # fused self-loop: superop(budget) returns ±iteration count

#: Instructions a block must execute before it is fused into a generated
#: superop.  Compiling costs around a millisecond — what fusion saves
#: over a few hundred per-instruction calls — so the warmup budget
#: scales inversely with block size and colder blocks never pay it.
#: Only the first-ever run of a program pays at all: compiled superops
#: persist through the artifact cache and later runs fuse immediately.
_FUSE_INSTRUCTIONS = 256

#: Executions floor: even large blocks run per instruction a few times
#: first, so straight-line cold code (run-once init) never compiles.
_FUSE_MIN_EXECUTIONS = 4

#: Per-program superop state shared across Machine instances: leader sets
#: and compiled code objects depend only on the program text, so repeat
#: runs of the same program (studies, equivalence tests) skip both the
#: leader scan and every ``compile`` call.  Keyed by the text bytes and
#: base address; bounded LRU.  Entries are also persisted through the
#: artifact cache (marshalled, like ``.pyc`` files), so a fresh process
#: running a previously-seen program never compiles at all.
_PROGRAM_CACHE: "OrderedDict[tuple, dict]" = OrderedDict()
_PROGRAM_CACHE_LIMIT = 8


def _shared_key(program: AssembledProgram) -> tuple:
    from repro.core import artifacts

    # Code objects are bytecode: the blob is only valid for the exact
    # interpreter that wrote it, so the cache tag joins the key.
    return (
        artifacts.fingerprint_bytes(program.text),
        program.text_base,
        sys.implementation.cache_tag,
    )


def _load_shared(program: AssembledProgram) -> dict:
    """Fresh shared-state entry, seeded from the disk artifact cache."""
    entry: dict = {"leaders": None, "codes": {}, "dirty": False}
    try:
        from repro.core import artifacts

        found, blob = artifacts.get_cache().load("superops", *_shared_key(program))
        if found:
            leaders = blob["leaders"]
            entry["leaders"] = set(leaders) if leaders is not None else None
            entry["codes"] = {
                pc: (marshal.loads(raw), mode)
                for pc, (raw, mode) in blob["codes"].items()
            }
    except Exception:  # corrupt blob or foreign bytecode: recompile
        entry = {"leaders": None, "codes": {}, "dirty": False}
    return entry


def _store_shared(program: AssembledProgram, entry: dict) -> None:
    """Persist newly compiled superops; no-op when nothing changed."""
    if not entry.get("dirty"):
        return
    try:
        from repro.core import artifacts

        leaders = entry["leaders"]
        blob = {
            "leaders": sorted(leaders) if leaders is not None else None,
            "codes": {
                pc: (marshal.dumps(code), mode)
                for pc, (code, mode) in entry["codes"].items()
            },
        }
        artifacts.get_cache().store("superops", blob, *_shared_key(program))
        entry["dirty"] = False
    except Exception:  # cache trouble must never fail an execution
        pass


def _program_cache(program: AssembledProgram) -> dict:
    key = (program.text, program.text_base)
    entry = _PROGRAM_CACHE.get(key)
    if entry is None:
        entry = _PROGRAM_CACHE[key] = _load_shared(program)
        while len(_PROGRAM_CACHE) > _PROGRAM_CACHE_LIMIT:
            _PROGRAM_CACHE.popitem(last=False)
    else:
        _PROGRAM_CACHE.move_to_end(key)
    return entry


class _Halt(Exception):
    """Raised internally by the exit syscall to stop the interpreter."""

    def __init__(self, exit_code: int) -> None:
        super().__init__(exit_code)
        self.exit_code = exit_code


@dataclass(frozen=True)
class ExecutionResult:
    """Everything one execution produced.

    Attributes:
        trace: The dynamic instruction-address trace.
        instructions_executed: Dynamic instruction count.
        data_accesses: Number of data loads + stores performed.
        stall_cycles: Pixie-style pipeline-stall estimate.
        output: Text emitted through print syscalls.
        exit_code: Value of ``$a0`` at the exit syscall (0 if it ran off
            the instruction limit with ``stop_at_limit=True``).
        registers: Final general-purpose register values.
    """

    trace: ExecutionTrace
    instructions_executed: int
    data_accesses: int
    stall_cycles: int
    output: str
    exit_code: int
    registers: tuple[int, ...]

    @property
    def base_cycles(self) -> int:
        """Issue cycles + stalls: execution time before memory penalties."""
        return self.instructions_executed + self.stall_cycles


# Precompiled converters: struct.Struct methods skip the per-call format
# cache lookup of the module-level functions.
_F32 = struct.Struct(">f")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_U64 = struct.Struct(">Q")


# ----------------------------------------------------------------------
# Instruction semantics as Python source
# ----------------------------------------------------------------------
#
# Generated code reads and writes architectural state through these
# names, bound as default arguments (the fastest name binding CPython
# offers): ``r`` GPRs, ``f`` FP registers, ``hl`` [HI, LO], ``cc`` the FP
# condition flag, ``d`` memory bytes, ``st`` [data-access count], ``out``
# the syscall output list, ``rstr`` the string reader, ``H`` the exit
# exception, ``EE`` ExecutionError, and the struct converters.  Writes to
# ``$zero`` are elided.  Scratch names: ``a`` address, ``s`` shift,
# ``w``/``v``/``x``/``y``/``q`` values, ``t0``… forwarded doubles; ``t``
# and ``taken`` carry a transfer's target and condition past its delay
# slot, and ``k``/``budget`` drive generated loops.

#: Operand values an emitter can refer to, from the instruction and its
#: pc.  A fused block writes each as a literal; a template refers to it
#: by this name and binds it per instruction.
_OPERANDS = {
    "rs": lambda i, pc: i.rs,
    "rt": lambda i, pc: i.rt,
    "rd": lambda i, pc: i.rd,
    "sa": lambda i, pc: i.shamt,
    "rt1": lambda i, pc: i.rt + 1,  # low word of an FP pair
    "rd1": lambda i, pc: i.rd + 1,
    "sa1": lambda i, pc: i.shamt + 1,
    "imm": lambda i, pc: i.imm_signed,
    "uimm": lambda i, pc: i.imm_unsigned,
    "imm32": lambda i, pc: i.imm_signed & _WORD_MASK,
    "lui": lambda i, pc: (i.imm_unsigned << 16) & _WORD_MASK,
    "pc": lambda i, pc: pc,
    "link": lambda i, pc: (pc + 8) & _MEM_MASK,
    "target": lambda i, pc: (pc + 4 + (i.imm_signed << 2)) & _MEM_MASK,
    "jump": lambda i, pc: ((pc + 4) & 0xF000_0000) | (i.target << 2),
}

#: Bindings that are the same for every machine.
_CONSTANTS = {
    "H": _Halt,
    "EE": ExecutionError,
    "PF": _F32.pack,
    "UF": _F32.unpack,
    "PI": _U32.pack,
    "UI": _U32.unpack,
    "PD": _F64.pack,
    "UD": _F64.unpack,
    "PQ": _U64.pack,
    "UQ": _U64.unpack,
}

#: Parameters of every superop: the whole machine state.
_STATE = ("r", "f", "hl", "cc", "d", "st", "out", "rstr", *_CONSTANTS)

_GLOBALS = {"__builtins__": builtins}


class _Spell:
    """How the emitters write one instruction's operands.

    ``spell.rs`` (or ``"{rs}".format_map(spell)``) is the literal value
    when fusing a block and the operand's name in a template.
    """

    __slots__ = ("_instruction", "_pc", "_literal")

    def __init__(self, instruction: Instruction, pc: int, literal: bool) -> None:
        self._instruction = instruction
        self._pc = pc
        self._literal = literal

    def __getitem__(self, name: str) -> str:
        if self._literal:
            return str(_OPERANDS[name](self._instruction, self._pc))
        return name

    __getattr__ = __getitem__

    def pair(self, name: str) -> tuple[int, str, str]:
        """FP pair in operand ``name``: register number, high and low word."""
        return _OPERANDS[name](self._instruction, self._pc), self[name], self[name + "1"]


def _fmt(spell: _Spell, *lines: str) -> list[str]:
    return [line.format_map(spell) for line in lines]


def _sx(expr: str) -> str:
    """Source sign-extending the 32-bit expression ``expr`` (branch-free)."""
    return f"({expr} - (({expr} & 0x80000000) << 1))"


def _load_float(var: str, reg: str) -> str:
    """Source reading FP register ``reg`` as a Python float into ``var``.

    FP registers only ever hold masked 32-bit patterns, so no mask is
    needed before packing.
    """
    return f"{var} = UF(PI(f[{reg}]))[0]"


class _ForwardState:
    """Local value forwarding of double-precision FP values in one block.

    Re-reading an FP register pair costs two struct calls plus the word
    stitching; within a block's straight-line code the emitter instead
    remembers which uniquely-named temporary already holds the double in
    pair ``index``/``index+1`` and reuses it.  Valid because packing a
    Python float to ``>d`` and unpacking it back is bit-exact, so the
    temporary equals what a re-read would produce.  Temporaries are
    never reassigned (fresh name per value), so a forwarded name stays
    valid even after its source registers are overwritten.  Only
    doubles are forwarded: a single-precision write rounds to float32,
    so its unrounded Python value must not be reused.  Templates emit
    with ``forward=False``: their source must not depend on whether two
    operands name the same register.
    """

    __slots__ = (
        "forward",
        "doubles",
        "touched",
        "seed_candidates",
        "raw",
        "double_writes",
        "sink_pairs",
        "pending",
        "_count",
    )

    def __init__(self, forward: bool = True) -> None:
        self.forward = forward
        self.doubles: dict[int, str] = {}  # pair base index -> temp name
        self.touched: set[int] = set()  # f words written so far
        # Pairs first loaded before any write to them: a generated loop
        # can hoist these loads above its ``while`` (see _block_source).
        self.seed_candidates: set[int] = set()
        # f words accessed as raw 32-bit patterns (single-precision ops,
        # moves, stores, mid-block reloads).  A pair overlapping a raw
        # word cannot have its write-back sunk out of a generated loop.
        self.raw: set[int] = set()
        self.double_writes: set[int] = set()  # pairs written as doubles
        # Loop write-back sinking (second emission pass only): pairs in
        # sink_pairs skip the per-write pack; ``pending`` maps them to
        # the temp holding their current value, in last-write order.
        self.sink_pairs: frozenset = frozenset()
        self.pending: dict[int, str] = {}
        self._count = 0

    def temp(self) -> str:
        name = f"t{self._count}"
        self._count += 1
        return name

    def ensure_double(self, lines: list[str], index: int, high: str, low: str) -> str:
        """Name of a variable holding the double in pair ``index`` (words
        spelled ``high``/``low``), appending the load when not forwarded."""
        var = self.doubles.get(index)
        if var is None:
            var = self.temp()
            lines.append(f"{var} = UD(PQ((f[{high}] << 32) | f[{low}]))[0]")
            if not self.forward:
                return var
            self.doubles[index] = var
            if index not in self.touched and index + 1 not in self.touched:
                # First access, before any write: hoistable to a loop
                # prelude, so it does not count as a raw in-loop read.
                self.seed_candidates.add(index)
            else:
                self.raw.update((index, index + 1))
        return var

    def store_double(
        self, lines: list[str], index: int, high: str, low: str, var: str
    ) -> None:
        """Write ``var`` to pair ``index``: packed immediately, or kept
        pending when the pair's write-back is sunk to the loop exit."""
        self.invalidate(index)
        self.invalidate(index + 1)
        self.double_writes.add(index)
        if index in self.sink_pairs:
            self.pending.pop(index, None)  # re-insert in last-write order
            self.pending[index] = var
        else:
            lines += [
                f"v = UQ(PD({var}))[0]",
                f"f[{high}] = (v >> 32) & 0xFFFFFFFF",
                f"f[{low}] = v & 0xFFFFFFFF",
            ]
        if self.forward:
            self.doubles[index] = var

    def invalidate(self, index: int) -> None:
        """Register word ``index`` was written: drop overlapping pairs."""
        self.touched.add(index)
        self.doubles.pop(index, None)
        self.doubles.pop(index - 1, None)

    def raw_access(self, *indices: int) -> None:
        """Words read or written as raw patterns (not via forwarding)."""
        self.raw.update(indices)


#: Integer instructions that only write one GPR: the destination field
#: and the value written to it.
_GPR_WRITES = {
    "add": ("rd", "(r[{rs}] + r[{rt}]) & 0xFFFFFFFF"),
    "addu": ("rd", "(r[{rs}] + r[{rt}]) & 0xFFFFFFFF"),
    "sub": ("rd", "(r[{rs}] - r[{rt}]) & 0xFFFFFFFF"),
    "subu": ("rd", "(r[{rs}] - r[{rt}]) & 0xFFFFFFFF"),
    "and": ("rd", "r[{rs}] & r[{rt}]"),
    "or": ("rd", "r[{rs}] | r[{rt}]"),
    "xor": ("rd", "r[{rs}] ^ r[{rt}]"),
    "nor": ("rd", "~(r[{rs}] | r[{rt}]) & 0xFFFFFFFF"),
    "slt": ("rd", "1 if " + _sx("r[{rs}]") + " < " + _sx("r[{rt}]") + " else 0"),
    "sltu": ("rd", "1 if r[{rs}] < r[{rt}] else 0"),
    "sll": ("rd", "(r[{rt}] << {sa}) & 0xFFFFFFFF"),
    "srl": ("rd", "r[{rt}] >> {sa}"),
    "sra": ("rd", "(" + _sx("r[{rt}]") + " >> {sa}) & 0xFFFFFFFF"),
    "sllv": ("rd", "(r[{rt}] << (r[{rs}] & 31)) & 0xFFFFFFFF"),
    "srlv": ("rd", "r[{rt}] >> (r[{rs}] & 31)"),
    "srav": ("rd", "(" + _sx("r[{rt}]") + " >> (r[{rs}] & 31)) & 0xFFFFFFFF"),
    "mfhi": ("rd", "hl[0]"),
    "mflo": ("rd", "hl[1]"),
    "addi": ("rt", "(r[{rs}] + {imm}) & 0xFFFFFFFF"),
    "addiu": ("rt", "(r[{rs}] + {imm}) & 0xFFFFFFFF"),
    "slti": ("rt", "1 if " + _sx("r[{rs}]") + " < {imm} else 0"),
    "sltiu": ("rt", "1 if r[{rs}] < {imm32} else 0"),
    "andi": ("rt", "r[{rs}] & {uimm}"),
    "ori": ("rt", "r[{rs}] | {uimm}"),
    "xori": ("rt", "r[{rs}] ^ {uimm}"),
    "lui": ("rt", "{lui}"),
    "mfc1": ("rt", "f[{rd}]"),
}

#: Other statement-only instructions with no forwarding bookkeeping.
_STATEMENTS = {
    "mult": (
        "v = " + _sx("r[{rs}]") + " * " + _sx("r[{rt}]"),
        "hl[0] = (v >> 32) & 0xFFFFFFFF",
        "hl[1] = v & 0xFFFFFFFF",
    ),
    "multu": (
        "v = r[{rs}] * r[{rt}]",
        "hl[0] = (v >> 32) & 0xFFFFFFFF",
        "hl[1] = v & 0xFFFFFFFF",
    ),
    "div": (
        "x = " + _sx("r[{rs}]"),
        "y = " + _sx("r[{rt}]"),
        "if y == 0:",
        "    hl[0] = hl[1] = 0",
        "else:",
        "    q = int(x / y)",
        "    hl[1] = q & 0xFFFFFFFF",
        "    hl[0] = (x - q * y) & 0xFFFFFFFF",
    ),
    "divu": (
        "if r[{rt}] == 0:",
        "    hl[0] = hl[1] = 0",
        "else:",
        "    hl[1] = r[{rs}] // r[{rt}]",
        "    hl[0] = r[{rs}] % r[{rt}]",
    ),
    "mthi": ("hl[0] = r[{rs}]",),
    "mtlo": ("hl[1] = r[{rs}]",),
    "syscall": (
        "if r[2] == 10:",
        "    raise H(r[4])",
        "if r[2] == 1:",
        "    out.append(str(" + _sx("r[4]") + "))",
        "elif r[2] == 4:",
        "    out.append(rstr(r[4]))",
        "elif r[2] == 11:",
        "    out.append(chr(r[4] & 0xFF))",
        "else:",
        '    raise EE(f"unsupported syscall {{r[2]}} at {{{pc}:#x}}")',
    ),
    "break": ('raise EE(f"break executed at {{{pc}:#x}}")',),
}

_WORD_READ = "(d[a] << 24) | (d[a + 1] << 16) | (d[a + 2] << 8) | d[a + 3]"
_WORD_WRITE = (
    "d[a] = (v >> 24) & 0xFF",
    "d[a + 1] = (v >> 16) & 0xFF",
    "d[a + 2] = (v >> 8) & 0xFF",
    "d[a + 3] = v & 0xFF",
)

#: Loads and stores: the statements after the effective address ``a`` is
#: formed (and, for the aligned kinds, checked).  The unaligned pairs
#: work on the word at ``a`` with ``s`` the byte offset in bits.
_MEMORY = {
    "lw": ("r[{rt}] = " + _WORD_READ,),
    "lh": (
        "v = (d[a] << 8) | d[a + 1]",
        "r[{rt}] = (v - 0x10000 if v & 0x8000 else v) & 0xFFFFFFFF",
    ),
    "lhu": ("r[{rt}] = (d[a] << 8) | d[a + 1]",),
    "lb": ("v = d[a]", "r[{rt}] = (v - 256 if v & 0x80 else v) & 0xFFFFFFFF"),
    "lbu": ("r[{rt}] = d[a]",),
    "lwl": (
        "w = " + _WORD_READ,
        "r[{rt}] = ((w << s) & 0xFFFFFFFF) | (r[{rt}] & ((1 << s) - 1))",
    ),
    "lwr": (
        "w = " + _WORD_READ,
        "v = (1 << (s + 8)) - 1",
        "r[{rt}] = (r[{rt}] & ~v & 0xFFFFFFFF) | ((w >> (24 - s)) & v)",
    ),
    "lwc1": ("f[{rt}] = " + _WORD_READ,),
    "sw": ("v = r[{rt}]", *_WORD_WRITE),
    "swc1": ("v = f[{rt}]", *_WORD_WRITE),
    "sh": ("d[a] = (r[{rt}] >> 8) & 0xFF", "d[a + 1] = r[{rt}] & 0xFF"),
    "sb": ("d[a] = r[{rt}] & 0xFF",),
    "swl": (
        "w = " + _WORD_READ,
        "v = (w & ~((1 << (32 - s)) - 1) & 0xFFFFFFFF) | (r[{rt}] >> s)",
        *_WORD_WRITE,
    ),
    "swr": (
        "w = " + _WORD_READ,
        "v = (w & ((1 << (24 - s)) - 1)) | ((r[{rt}] << (24 - s)) & 0xFFFFFFFF)",
        *_WORD_WRITE,
    ),
}

#: Alignment masks of the checked memory accesses.
_ALIGNMENT = {"lw": 3, "sw": 3, "lwc1": 3, "swc1": 3, "lh": 1, "lhu": 1, "sh": 1}

#: Binary FP operators over the operand values ``x`` and ``y``.
_FP_BINARY = {
    "add": "{x} + {y}",
    "sub": "{x} - {y}",
    "mul": "{x} * {y}",
    "div": '{x} / {y} if {y} != 0.0 else float("inf") * (1 if {x} >= 0 else -1)',
}


def _address_lines(instruction: Instruction, spell: _Spell) -> list[str]:
    """Count the access and form the effective address ``a``."""
    m = instruction.mnemonic
    lines = _fmt(spell, "st[0] += 1", "a = (r[{rs}] + {imm}) & 0xFFFFFF")
    alignment = _ALIGNMENT.get(m)
    if alignment is not None:
        lines += [
            f"if a & {alignment}:",
            f'    raise EE(f"unaligned {m} at {{a:#x}} (pc {{{spell.pc}:#x}})")',
        ]
    elif m in ("lwl", "lwr", "swl", "swr"):
        lines += ["s = 8 * (a & 3)", "a &= 0xFFFFFC"]
    return lines


def _emit_instruction(
    instruction: Instruction, spell: _Spell, fwd: _ForwardState
) -> list[str]:
    """Python statements executing one straight-line instruction."""
    m = instruction.mnemonic
    write = _GPR_WRITES.get(m)
    if write is not None:
        field, value = write
        if not getattr(instruction, field):
            return []
        if m == "mfc1":
            fwd.raw_access(instruction.rd)
        return [f"r[{spell[field]}] = " + value.format_map(spell)]
    statements = _STATEMENTS.get(m)
    if statements is not None:
        return _fmt(spell, *statements)
    access = _MEMORY.get(m)
    if access is not None:
        if m == "lwc1":
            fwd.invalidate(instruction.rt)
            fwd.raw_access(instruction.rt)
        elif m == "swc1":
            fwd.raw_access(instruction.rt)
        lines = _address_lines(instruction, spell)
        if instruction.spec.category is Category.LOAD and not instruction.rt:
            return lines
        return lines + _fmt(spell, *access)

    # --- FP moves and arithmetic: fd = sa, fs = rd, ft = rt ---------------
    fd, fs, ft = instruction.shamt, instruction.rd, instruction.rt
    if m == "mtc1":
        fwd.invalidate(fs)
        fwd.raw_access(fs)
        return _fmt(spell, "f[{rd}] = r[{rt}]")
    kind, _, fmt = m.partition(".")
    double = m.endswith(".d")
    if kind == "mov":
        if not double:
            fwd.raw_access(fs, fd)
            fwd.invalidate(fd)
            return _fmt(spell, "f[{sa}] = f[{rd}]")
        fwd.raw_access(fs, fs + 1, fd, fd + 1)
        source_var = fwd.doubles.get(fs)
        fwd.invalidate(fd)
        fwd.invalidate(fd + 1)
        if source_var is not None:
            fwd.doubles[fd] = source_var
        return _fmt(spell, "f[{sa}] = f[{rd}]", "f[{sa1}] = f[{rd1}]")
    if kind in ("abs", "neg"):
        # Pure sign-bit manipulation: cheaper on the packed words.
        mask_op = "^ 0x80000000" if kind == "neg" else "& 0x7FFFFFFF"
        lines = [f"f[{spell.sa}] = f[{spell.rd}] {mask_op}"]
        fwd.raw_access(fs, fd)
        fwd.invalidate(fd)
        if double:
            lines += _fmt(spell, "f[{sa1}] = f[{rd1}]")
            fwd.raw_access(fs + 1, fd + 1)
            fwd.invalidate(fd + 1)
        return lines
    operator = _FP_BINARY.get(kind)
    if operator is not None:
        if double:
            lines: list[str] = []
            x = fwd.ensure_double(lines, *spell.pair("rd"))
            y = fwd.ensure_double(lines, *spell.pair("rt"))
            result = fwd.temp()
            lines.append(f"{result} = " + operator.format(x=x, y=y))
            fwd.store_double(lines, *spell.pair("sa"), result)
            return lines
        fwd.raw_access(fs, ft, fd)
        fwd.invalidate(fd)
        return [
            _load_float("x", spell.rd),
            _load_float("y", spell.rt),
            f"f[{spell.sa}] = UI(PF({operator.format(x='x', y='y')}))[0]",
        ]
    if kind == "cvt":
        to_kind, from_kind = fmt.split(".")
        lines = []
        if from_kind == "d":
            x = fwd.ensure_double(lines, *spell.pair("rd"))
        elif from_kind == "s":
            fwd.raw_access(fs)
            lines.append(_load_float("x", spell.rd))
            x = "x"
        else:
            fwd.raw_access(fs)
            lines.append("x = " + _sx(f"f[{spell.rd}]"))
            x = "x"
        if to_kind == "d":
            result = fwd.temp()
            lines.append(f"{result} = float({x})")
            fwd.store_double(lines, *spell.pair("sa"), result)
        else:
            fwd.raw_access(fd)
            if to_kind == "s":
                lines.append(f"f[{spell.sa}] = UI(PF(float({x})))[0]")
            else:  # to word: truncate toward zero, C-style
                lines.append(f"f[{spell.sa}] = int({x}) & 0xFFFFFFFF")
            fwd.invalidate(fd)
        return lines
    if kind == "c":
        condition = fmt.split(".")[0]
        lines = []
        if double:
            x = fwd.ensure_double(lines, *spell.pair("rd"))
            y = fwd.ensure_double(lines, *spell.pair("rt"))
        else:
            fwd.raw_access(fs, ft)
            lines += [_load_float("x", spell.rd), _load_float("y", spell.rt)]
            x, y = "x", "y"
        comparison = {"eq": f"{x} == {y}", "lt": f"{x} < {y}"}.get(
            condition, f"{x} <= {y}"
        )
        lines.append(f"cc[0] = 1 if {comparison} else 0")
        return lines
    raise ExecutionError(f"no straight-line semantics for {m!r}")


#: Condition expressions of the conditional branches.  ``bltz`` yields
#: the raw sign bit, which Python treats as true exactly when it
#: branches.
_BRANCH_CONDITIONS = {
    "beq": "r[{rs}] == r[{rt}]",
    "bne": "r[{rs}] != r[{rt}]",
    "blez": _sx("r[{rs}]") + " <= 0",
    "bgtz": _sx("r[{rs}]") + " > 0",
    "bltz": "r[{rs}] & 0x80000000",
    "bgez": "not (r[{rs}] & 0x80000000)",
    "bltzal": "r[{rs}] & 0x80000000",
    "bgezal": "not (r[{rs}] & 0x80000000)",
    "bc1t": "cc[0] == 1",
    "bc1f": "cc[0] == 0",
}


def _emit_terminator(
    instruction: Instruction, spell: _Spell, end: str
) -> tuple[list[str], str]:
    """``(setup_lines, next_pc)`` for a control transfer.

    ``setup_lines`` evaluate the branch condition (and perform link-
    register writes) *before* the delay slot runs; ``next_pc`` — the
    taken target, or ``end`` for a branch not taken — is evaluated
    after it.
    """
    m = instruction.mnemonic
    condition = _BRANCH_CONDITIONS.get(m)
    if condition is not None:
        # The and-link branches write $ra before reading the condition.
        setup = ["r[31] = {link}"] if m in ("bltzal", "bgezal") else []
        return _fmt(spell, *setup, "taken = " + condition), (
            f"{spell.target} if taken else {end}"
        )
    if m == "j":
        return [], spell.jump
    if m == "jal":
        return _fmt(spell, "r[31] = {link}"), spell.jump
    if m == "jr":
        return _fmt(spell, "t = r[{rs}]"), "t"
    if m == "jalr":
        setup = ["t = r[{rs}]"] + (["r[{rd}] = {link}"] if instruction.rd else [])
        return _fmt(spell, *setup), "t"
    raise ExecutionError(f"no control-transfer semantics for {m!r}")


def _function_code(lines: list[str], params: tuple[str, ...] | None) -> CodeType:
    """Code object of a function running ``lines``.

    ``params=None`` takes every state and operand name the body uses,
    so a template binds no more than it reads.
    """
    if params is None:
        bindable = set(_STATE) | set(_OPERANDS)
        used = _function_code(lines, ())
        params = tuple(sorted(bindable.intersection(used.co_names)))
    source = f"def _su({', '.join(params)}):\n" + "\n".join(
        "    " + line for line in lines or ["pass"]
    )
    module = compile(source, "<superop>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _instantiate(
    code: CodeType, state: dict, instruction: Instruction | None = None, pc: int = 0
) -> FunctionType:
    """A function over ``code`` with every parameter but a generated
    loop's ``budget`` bound: state by name, operands from
    ``instruction`` at ``pc``."""
    params = code.co_varnames[: code.co_argcount]
    if params[:1] == ("budget",):
        params = params[1:]
    defaults = tuple(
        state[name] if name in state else _OPERANDS[name](instruction, pc)
        for name in params
    )
    return FunctionType(code, _GLOBALS, code.co_name, defaults)


#: Compiled templates, one per instruction shape: the mnemonic, and
#: whether ``rd`` and ``rt`` are ``$zero`` (writes to it are elided).
#: Nothing else about the operands changes the source.
_TEMPLATES: dict[tuple, CodeType] = {}


def _instruction_lines(
    instruction: Instruction, spell: _Spell, fwd: _ForwardState
) -> list[str]:
    """One instruction as a function body.

    The function returns a control transfer's next pc (``None`` when a
    branch is not taken) and ``None`` otherwise.
    """
    if instruction.spec.is_control_transfer:
        setup, next_pc = _emit_terminator(instruction, spell, "None")
        return setup + [f"return {next_pc}"]
    return _emit_instruction(instruction, spell, fwd)


def _not_compiled(instruction: Instruction, pc: int, exc: Exception) -> ExecutionError:
    return ExecutionError(f"cannot compile {instruction.mnemonic} at pc {pc:#x}: {exc}")


def _template(instruction: Instruction, pc: int) -> CodeType:
    """The per-instruction template for ``instruction``'s shape."""
    shape = (instruction.mnemonic, instruction.rd == 0, instruction.rt == 0)
    code = _TEMPLATES.get(shape)
    if code is None:
        spell = _Spell(instruction, pc, literal=False)
        lines = _instruction_lines(instruction, spell, _ForwardState(forward=False))
        try:
            code = _function_code(lines, None)
        except SyntaxError as exc:
            raise _not_compiled(instruction, pc, exc) from exc
        _TEMPLATES[shape] = code
    return code


def _block_source(
    entries: list[tuple[Instruction, int]],
    branch_entry: tuple[Instruction, int] | None,
    slot_entry: tuple[Instruction, int] | None,
    pc: int,
    end: int,
) -> tuple[list[str], int]:
    """``(lines, mode)`` of the fused function for one block.

    ``entries`` pairs each straight-line instruction with its address;
    ``branch_entry``/``slot_entry`` carry a closing control transfer and
    its delay slot (``None`` for fall-through blocks); ``end`` is the
    address past the block.  The superop returns the next pc
    (:data:`_M_INLINE`), except that a conditional branch targeting the
    block's own entry becomes a generated loop (:data:`_M_LOOP`:
    ``superop(budget)`` runs up to ``budget`` iterations and returns
    the count, negated when it exited with the branch still taken).
    """
    forward = _ForwardState()
    body: list[str] = []
    for instruction, address in entries:
        body += _emit_instruction(instruction, _Spell(instruction, address, True), forward)
    if branch_entry is None:
        return body + [f"return {end}"], _M_INLINE
    branch, branch_pc = branch_entry
    slot, slot_pc = slot_entry
    branch_spell = _Spell(branch, branch_pc, True)
    setup, next_pc = _emit_terminator(branch, branch_spell, str(end))
    slot_lines = _emit_instruction(slot, _Spell(slot, slot_pc, True), forward)
    if (
        branch.mnemonic not in _BRANCH_CONDITIONS
        or _OPERANDS["target"](branch, branch_pc) != pc
        # An exit in the slot must end a dispatch, so counts stay exact.
        or slot.mnemonic == "syscall"
    ):
        return body + setup + slot_lines + [f"return {next_pc}"], _M_INLINE
    # Self-loop: re-emit with FP pair loads hoisted above the loop.
    # The first emission pass doubles as the discovery pass: a pair
    # whose first access was a read (load before any write) gets its
    # load in a prelude; a pair still forwarded at the loop bottom
    # carries its value into the next iteration through a cheap
    # name rotation instead of a reconversion.  Both passes emit
    # identical instruction semantics, so forwarding trajectories
    # match and every seeded pair is live at the bottom.
    seedable = sorted(p for p in forward.seed_candidates if p in forward.doubles)
    # Pairs only ever written as doubles, never touched word-wise, keep
    # their value in a local: the pack + two word stores move from the
    # loop body to the exit branch.  Overlapping pairs (odd bases alias
    # even ones) fall back to the immediate write, which is always
    # correct.
    sinkable = frozenset(
        p
        for p in forward.double_writes
        if p not in forward.raw
        and p + 1 not in forward.raw
        and p - 1 not in forward.double_writes
        and p + 1 not in forward.double_writes
    )
    state = _ForwardState()
    state.sink_pairs = sinkable
    prelude: list[str] = []
    seeds = {p: state.ensure_double(prelude, p, str(p), str(p + 1)) for p in seedable}
    loop_body: list[str] = []
    for instruction, address in entries:
        loop_body += _emit_instruction(
            instruction, _Spell(instruction, address, True), state
        )
    loop_slot = _emit_instruction(slot, _Spell(slot, slot_pc, True), state)
    rotations = [
        f"{seeds[p]} = {state.doubles[p]}"
        for p in seedable
        if state.doubles[p] != seeds[p]
    ]
    # Flush sunk pairs in last-write order so aliasing writes land
    # exactly as the immediate path would have left them.  The body is
    # straight-line, so every pending pair was written this iteration
    # and its temp holds the final value.
    flush: list[str] = []
    for p, var in state.pending.items():
        flush += [
            f"    v = UQ(PD({var}))[0]",
            f"    f[{p}] = (v >> 32) & 0xFFFFFFFF",
            f"    f[{p + 1}] = v & 0xFFFFFFFF",
        ]
    inner = loop_body + setup + loop_slot + rotations + [
        "k += 1",
        "if k >= budget or not taken:",
        *flush,
        "    return -k if taken else k",
    ]
    lines = prelude + ["k = 0", "while True:"] + ["    " + line for line in inner]
    return lines, _M_LOOP


class Machine:
    """A loaded program plus architectural state, ready to run.

    Example::

        machine = Machine(program)
        result = machine.run()
        print(result.instructions_executed, result.output)
    """

    def __init__(
        self,
        program: AssembledProgram,
        stall_model: StallModel = R2000_STALLS,
    ) -> None:
        self.program = program
        self.stall_model = stall_model
        self.memory = Memory()
        self.memory.load_segment(program.text_base, program.text)
        if program.data:
            self.memory.load_segment(program.data_base, program.data)
        self.regs: list[int] = [0] * 32
        self.regs[29] = STACK_TOP  # $sp
        self.regs[28] = (program.data_base + 0x8000) & _MEM_MASK  # $gp
        self.fpr: list[int] = [0] * 32
        self.hilo: list[int] = [0, 0]
        self.fcc: list[int] = [0]  # FP condition flag
        self._output: list[str] = []
        self._stats: list[int] = [0]  # [data_access_count]
        self._state = {
            "r": self.regs,
            "f": self.fpr,
            "hl": self.hilo,
            "cc": self.fcc,
            "d": self.memory.data,
            "st": self._stats,
            "out": self._output,
            "rstr": self.memory.read_string,
            **_CONSTANTS,
        }
        # Per-instruction functions, instantiated on first use.
        self._ops: list = [None] * len(program.instructions)
        self._leaders: set[int] | None = None
        self._shared = _program_cache(program)
        self._block_addresses: list[np.ndarray] = []
        # Dispatch records keyed by entry pc.  The tuple layout varies by
        # mode (record[3]): (n, superop, block_id, 1) for fused blocks
        # returning the next pc, (n, superop, block_id, 3, end) for
        # generated loops, (n, ops, block_id, 0, end, warm) for
        # fall-through warmups and (n, ops, block_id, 2, end, warm,
        # branch, slot) for branch warmups, where ``warm`` is [executions
        # left before fusing, the block's _fuse arguments].  ``False``
        # marks pcs that start no block.
        self._record_at: dict[int, tuple | bool] = {}
        self._single_id_at: dict[int, int] = {}  # pc -> singleton block id

    def run(
        self,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        stop_at_limit: bool = False,
    ) -> ExecutionResult:
        """Execute from the program entry until the exit syscall.

        Args:
            max_instructions: Upper bound on dynamic instructions.
            stop_at_limit: If true, hitting the bound truncates the trace
                instead of raising :class:`~repro.errors.ExecutionError`.

        The loop dispatches whole basic blocks, one trace event each.
        Sequential control flow (``npc == pc + 4``) executes a block at
        once; anything unusual — a pending branch target from a delay
        slot, a block bigger than the remaining instruction budget, a
        transfer with no delay slot of its own — single-steps one
        instruction per event.  ``tests/test_superop_engine.py`` pins
        the result to an independent reference interpreter.
        """
        program = self.program
        ops = self._ops
        base = program.text_base
        top = base + len(ops) * 4
        get_record = self._record_at.get
        events: list[int] = []
        append = events.append
        extend = events.extend
        pc = program.entry
        npc = pc + 4
        executed = 0
        exit_code = 0
        try:
            while executed < max_instructions:
                if not base <= pc < top or pc & 3:
                    where = "misaligned" if pc & 3 else "outside text segment"
                    raise ExecutionError(f"PC {pc:#x} {where}")
                if npc == pc + 4:
                    record = get_record(pc)
                    if record is None:
                        record = self._make_block(pc)
                    if record is not False:
                        n = record[0]
                        remaining = max_instructions - executed
                        if n <= remaining:
                            mode = record[3]
                            if mode == 1:  # fused: returns the next pc
                                append(record[2])
                                executed += n
                                pc = record[1]()
                                npc = pc + 4
                            elif mode == 3:  # generated self-loop
                                k = record[1](remaining // n)
                                if k < 0:
                                    k = -k  # taken: back to the head
                                else:
                                    pc = record[4]
                                    npc = pc + 4
                                executed += k * n
                                if k == 1:
                                    append(record[2])
                                else:
                                    extend([record[2]] * k)
                            else:  # warmup: per-instruction functions
                                append(record[2])
                                executed += n
                                warm = record[5]
                                warm[0] -= 1
                                if warm[0] <= 0:
                                    # Fused from the next dispatch on; this
                                    # one finishes as it began.
                                    self._record_at[pc] = self._fuse(*warm[1])
                                for op in record[1]:
                                    op()
                                if mode == 0:
                                    pc = record[4]
                                    npc = pc + 4
                                else:
                                    taken = record[6]()
                                    slot_target = record[7]()
                                    pc = record[4] if taken is None else taken
                                    npc = pc + 4 if slot_target is None else slot_target
                            continue
                # Single step: one instruction, one event.
                append(self._single_id(pc))
                executed += 1
                index = (pc - base) >> 2
                op = ops[index] or self._op(index)
                target = op()
                pc = npc
                npc = pc + 4 if target is None else target
            if not stop_at_limit:
                raise ExecutionError(
                    f"instruction limit {max_instructions} reached without exit"
                )
        except _Halt as halt:
            # The exit syscall always ends its block, so the pre-counted
            # event totals are exact through the halting instruction.
            exit_code = halt.exit_code

        _store_shared(program, self._shared)
        execution_trace = ExecutionTrace(
            text_base=program.text_base,
            text_size=len(program.text),
            blocks=BlockTrace(
                events=np.array(events, dtype=np.int32),
                block_addresses=tuple(self._block_addresses),
                text_base=program.text_base,
                text_size=len(program.text),
            ),
        )
        from_counts = getattr(self.stall_model, "stall_cycles_from_counts", None)
        if from_counts is not None:
            stall_cycles = from_counts(
                execution_trace.execution_counts(len(program.instructions)),
                program.instructions,
            )
        else:
            stall_cycles = self.stall_model.stall_cycles(
                execution_trace.instruction_indices, program.instructions
            )
        return ExecutionResult(
            trace=execution_trace,
            instructions_executed=executed,
            data_accesses=self._stats[0],
            stall_cycles=stall_cycles,
            output="".join(self._output),
            exit_code=exit_code,
            registers=tuple(self.regs),
        )

    def _op(self, index: int) -> FunctionType:
        """The function executing instruction ``index`` (instantiated once)."""
        op = self._ops[index]
        if op is None:
            instruction = self.program.instructions[index]
            pc = self.program.text_base + 4 * index
            op = self._ops[index] = _instantiate(
                _template(instruction, pc), self._state, instruction, pc
            )
        return op

    def _make_block(self, pc: int) -> tuple | bool:
        """Build and register the block entered at ``pc``.

        Returns the block's dispatch record, or ``False`` when no block
        can start here — a control transfer with no delay slot in the
        text, or with another transfer in its slot — so the engine
        single-steps it.
        """
        if self._leaders is None:
            shared = self._shared
            if shared["leaders"] is None:
                shared["leaders"] = find_leaders(
                    self.program.instructions,
                    self.program.text_base,
                    split_after_syscalls=True,
                )
                shared["dirty"] = True
            self._leaders = shared["leaders"]
        base = self.program.text_base
        top = base + len(self._ops) * 4
        instructions = self.program.instructions
        leaders = self._leaders
        entries: list[tuple[Instruction, int]] = []
        branch_entry = slot_entry = None
        address = end = pc
        while address < top:
            instruction = instructions[(address - base) >> 2]
            if instruction.spec.is_control_transfer:
                if address + 8 <= top:
                    slot = instructions[(address + 4 - base) >> 2]
                    if not slot.spec.is_control_transfer:
                        branch_entry = (instruction, address)
                        slot_entry = (slot, address + 4)
                        end = address + 8
                break
            entries.append((instruction, address))
            address += 4
            end = address
            if instruction.mnemonic in ("syscall", "break") or address in leaders:
                break
        n = (end - pc) >> 2
        if not n:
            self._record_at[pc] = False
            return False
        block_id = len(self._block_addresses)
        self._block_addresses.append(np.arange(pc, end, 4, dtype=np.uint32))
        block = (pc, entries, branch_entry, slot_entry, n, end, block_id)
        if pc in self._shared["codes"]:
            # Another machine already compiled this block: fuse for free.
            record = self._fuse(*block)
        else:
            # Defer compilation until the block proves hot; cold blocks
            # run per instruction, which is cheaper than compiling.  The
            # countdown lives in the record, not in a closure over the
            # machine, so a finished machine is freed without waiting for
            # the cycle collector.
            ops = tuple(self._op((address - base) >> 2) for _, address in entries)
            warm = [max(_FUSE_MIN_EXECUTIONS, _FUSE_INSTRUCTIONS // n), block]
            if branch_entry is None:
                record = (n, ops, block_id, _M_FALL, end, warm)
            else:
                branch_index = (branch_entry[1] - base) >> 2
                record = (
                    n, ops, block_id, _M_BRANCH, end, warm,
                    self._op(branch_index), self._op(branch_index + 1),
                )
        self._record_at[pc] = record
        return record

    def _fuse(
        self,
        pc: int,
        entries: list[tuple[Instruction, int]],
        branch_entry: tuple[Instruction, int] | None,
        slot_entry: tuple[Instruction, int] | None,
        n: int,
        end: int,
        block_id: int,
    ) -> tuple:
        """Compile one block into a single function; return its record.

        Code objects are shared across machines running the same
        program.  A block whose source does not compile raises
        :class:`~repro.errors.ExecutionError` naming the instruction.
        """
        codes = self._shared["codes"]
        cached = codes.get(pc)
        if cached is None:
            lines, mode = _block_source(entries, branch_entry, slot_entry, pc, end)
            params = ("budget", *_STATE) if mode == _M_LOOP else _STATE
            try:
                cached = (_function_code(lines, params), mode)
            except SyntaxError as exc:
                # Name the culprit: the member whose own source fails.
                members = entries + [branch_entry, slot_entry] if branch_entry else entries
                for instruction, address in members:
                    spell = _Spell(instruction, address, literal=True)
                    lines = _instruction_lines(instruction, spell, _ForwardState())
                    try:
                        _function_code(lines, _STATE)
                    except SyntaxError as culprit:
                        raise _not_compiled(instruction, address, culprit) from exc
                raise ExecutionError(f"superop at pc {pc:#x} does not compile: {exc}") from exc
            codes[pc] = cached
            self._shared["dirty"] = True
        code, mode = cached
        superop = _instantiate(code, self._state)
        if mode == _M_LOOP:
            return (n, superop, block_id, _M_LOOP, end)
        return (n, superop, block_id, _M_INLINE)

    def _single_id(self, pc: int) -> int:
        """Block id of the one-instruction event at ``pc`` (cached)."""
        single_id = self._single_id_at.get(pc)
        if single_id is None:
            single_id = len(self._block_addresses)
            self._block_addresses.append(np.array([pc], dtype=np.uint32))
            self._single_id_at[pc] = single_id
        return single_id
