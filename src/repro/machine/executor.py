"""Functional MIPS-I simulator with branch delay slots.

The :class:`Machine` pre-compiles each static instruction into a Python
closure and interprets the program directly, recording the dynamic
instruction-address trace.  This is the reproduction's stand-in for running
real DECstation binaries under ``pixie``.

Architectural conventions:

* 32 general-purpose registers (``$zero`` hard-wired), HI/LO, 32 FP
  registers holding raw 32-bit patterns (doubles occupy even/odd pairs,
  even register = most-significant word, matching big-endian memory).
* Branch delay slots are executed exactly as on the R2000.
* ``jal``/``jalr`` link to the instruction after the delay slot.
* Arithmetic overflow wraps (the trapping variants are treated like their
  unsigned twins; none of the workloads relies on overflow traps).
* SPIM-style syscalls: ``$v0`` = 1 print_int, 4 print_string,
  11 print_char, 10 exit.
"""

from __future__ import annotations

import marshal
import struct
import sys
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError
from repro.isa.assembler import AssembledProgram
from repro.isa.cfg import find_leaders
from repro.isa.instruction import Instruction
from repro.machine.memory import Memory
from repro.machine.stalls import R2000_STALLS, StallModel
from repro.machine.tracing import BlockTrace, ExecutionTrace

#: Default cap on executed instructions (the paper's traces are 10K-1M).
DEFAULT_MAX_INSTRUCTIONS = 4_000_000

#: Initial stack pointer: top of the 24-bit space, word aligned.
STACK_TOP = 0xFFFFF0

_WORD_MASK = 0xFFFFFFFF
_MEM_MASK = (1 << 24) - 1


#: Block kinds of the superop engine.
_FALL = 0  # straight line; control falls through to ``end``
_BRANCH = 1  # ends in a control transfer plus its delay slot

#: Dispatch modes of a fused block's record (how to interpret the
#: superop's return value).
_M_FALL = 0  # superop returns None; control falls through to ``end``
_M_INLINE = 1  # terminator inlined (or none); superop returns the next pc
_M_CLOSURE = 2  # superop runs the body; branch/slot closures finish
_M_LOOP = 3  # self-loop; superop(budget) returns ±iteration count

#: Instructions a block must execute before it is fused into a generated
#: superop.  Compiling costs around a millisecond — what fusion saves
#: over a few hundred closure-loop instructions — so the warmup budget
#: scales inversely with block size and colder blocks never pay it.
#: Only the first-ever run of a program pays at all: compiled superops
#: persist through the artifact cache and later runs fuse immediately.
_FUSE_INSTRUCTIONS = 256

#: Executions floor: even large blocks run the closure loop a few times
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
        3,  # payload format: loop entries carry (n, end, member starts)
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
                pc: (marshal.loads(raw), mode, target)
                for pc, (raw, mode, target) in blob["codes"].items()
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
                pc: (marshal.dumps(code), mode, target)
                for pc, (code, mode, target) in entry["codes"].items()
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


class _Block:
    """One fused basic block: a compiled superop plus a terminator.

    ``superop`` is a single generated function inlining the block's
    straight-line instruction semantics (``None`` falls back to calling
    the per-instruction ``ops`` closures in order); a :data:`_BRANCH`
    block then runs its branch and delay-slot closures with the exact
    two-step semantics of the per-instruction loop.  ``addresses`` is
    the static address array recorded once per execution event instead
    of once per instruction.
    """

    __slots__ = ("kind", "ops", "superop", "branch", "slot", "n", "addresses", "end")

    def __init__(self, kind, ops, superop, branch, slot, addresses, end):
        self.kind = kind
        self.ops = ops
        self.superop = superop
        self.branch = branch
        self.slot = slot
        self.n = len(addresses)
        self.addresses = addresses
        self.end = end


class _Halt(Exception):
    """Raised internally by the exit syscall to stop the interpreter."""

    def __init__(self, exit_code: int) -> None:
        super().__init__(exit_code)
        self.exit_code = exit_code


class _LazyOps:
    """Per-instruction closures, compiled on first touch.

    The superop engine executes almost every instruction inside generated
    block functions and only needs individual closures for the blocks it
    actually enters (warmup runs, closure terminators, single-step
    fallback).  Compiling all of them eagerly made ``Machine``
    construction scale with *static* text size — for large programs that
    cost several times the execution itself — so block mode builds this
    view instead and pays only for the dynamically touched footprint.
    Indexing and slicing return the same closures the eager list would.
    """

    __slots__ = ("_compile_one", "_instructions", "_base", "_ops")

    def __init__(self, compile_one, instructions, base: int) -> None:
        self._compile_one = compile_one
        self._instructions = instructions
        self._base = base
        self._ops: list = [None] * len(instructions)

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self[position]
                for position in range(*index.indices(len(self._ops)))
            )
        op = self._ops[index]
        if op is None:
            op = self._ops[index] = self._compile_one(
                self._instructions[index], self._base + 4 * index
            )
        return op


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


def _signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# Precompiled converters: struct.Struct methods skip the per-call format
# cache lookup of the module-level functions.
_F32 = struct.Struct(">f")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
_U64 = struct.Struct(">Q")


def _float_bits(value: float) -> int:
    return _U32.unpack(_F32.pack(value))[0]


def _bits_float(bits: int) -> float:
    return _F32.unpack(_U32.pack(bits & _WORD_MASK))[0]


def _double_bits(value: float) -> int:
    return _U64.unpack(_F64.pack(value))[0]


def _bits_double(bits: int) -> float:
    return _F64.unpack(_U64.pack(bits & 0xFFFF_FFFF_FFFF_FFFF))[0]


# ----------------------------------------------------------------------
# Superop code generation
# ----------------------------------------------------------------------
#
# Each basic block is fused into one generated Python function whose body
# inlines the block's instruction semantics with every static operand —
# register numbers, immediates, shift amounts, fault addresses — folded in
# as literals, and writes to the hard-wired ``$zero`` elided outright.
# Architectural state is bound once through default arguments (the fastest
# name binding CPython offers), so the interpreter pays a single call per
# block instead of one per instruction.  Every emitted statement mirrors
# the corresponding ``Machine._compile`` closure line for line; mnemonics
# without an emitter fall back to calling that closure (``_o[k]()``), so
# fusion never changes semantics.


def _sx(expr: str) -> str:
    """Source sign-extending the 32-bit expression ``expr`` (branch-free)."""
    return f"({expr} - (({expr} & 0x80000000) << 1))"


def _load_float(var: str, index: int) -> str:
    """Source reading FP register ``index`` as a Python float into ``var``.

    FP registers only ever hold masked 32-bit patterns, so the defensive
    mask of :func:`_bits_float` is unnecessary here.
    """
    return f"{var} = UF(PI(f[{index}]))[0]"


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
    so its unrounded Python value must not be reused.
    """

    __slots__ = (
        "doubles",
        "touched",
        "seed_candidates",
        "raw",
        "double_writes",
        "sink_pairs",
        "pending",
        "opaque",
        "_count",
    )

    def __init__(self) -> None:
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
        self.opaque = False  # block contains a closure-fallback op
        self._count = 0

    def temp(self) -> str:
        name = f"t{self._count}"
        self._count += 1
        return name

    def ensure_double(self, lines: list[str], index: int) -> str:
        """Name of a variable holding the double in pair ``index``,
        appending the load to ``lines`` when it is not forwarded."""
        var = self.doubles.get(index)
        if var is None:
            var = self.temp()
            lines.append(f"{var} = UD(PQ((f[{index}] << 32) | f[{index + 1}]))[0]")
            self.doubles[index] = var
            if index not in self.touched and index + 1 not in self.touched:
                # First access, before any write: hoistable to a loop
                # prelude, so it does not count as a raw in-loop read.
                self.seed_candidates.add(index)
            else:
                self.raw.update((index, index + 1))
        return var

    def store_double(self, lines: list[str], index: int, var: str) -> None:
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
                f"f[{index}] = (v >> 32) & 0xFFFFFFFF",
                f"f[{index + 1}] = v & 0xFFFFFFFF",
            ]
        self.doubles[index] = var

    def invalidate(self, index: int) -> None:
        """Register word ``index`` was written: drop overlapping pairs."""
        self.touched.add(index)
        self.doubles.pop(index, None)
        self.doubles.pop(index - 1, None)

    def raw_access(self, *indices: int) -> None:
        """Words read or written as raw patterns (not via forwarding)."""
        self.raw.update(indices)

    def clear(self) -> None:
        self.opaque = True
        self.doubles.clear()


def _emit_instruction(
    instruction: Instruction, pc: int, fwd: _ForwardState | None = None
) -> list[str] | None:
    """Python statements for one straight-line instruction, or ``None``
    to defer to the pre-compiled closure."""
    if fwd is None:
        fwd = _ForwardState()
    m = instruction.mnemonic
    rs, rt, rd = instruction.rs, instruction.rt, instruction.rd
    shamt = instruction.shamt
    imm = instruction.imm_signed
    uimm = instruction.imm_unsigned

    # --- integer R-type --------------------------------------------
    if m in ("add", "addu"):
        return [f"r[{rd}] = (r[{rs}] + r[{rt}]) & 0xFFFFFFFF"] if rd else []
    if m in ("sub", "subu"):
        return [f"r[{rd}] = (r[{rs}] - r[{rt}]) & 0xFFFFFFFF"] if rd else []
    if m == "and":
        return [f"r[{rd}] = r[{rs}] & r[{rt}]"] if rd else []
    if m == "or":
        return [f"r[{rd}] = r[{rs}] | r[{rt}]"] if rd else []
    if m == "xor":
        return [f"r[{rd}] = r[{rs}] ^ r[{rt}]"] if rd else []
    if m == "nor":
        return [f"r[{rd}] = ~(r[{rs}] | r[{rt}]) & 0xFFFFFFFF"] if rd else []
    if m == "slt":
        if not rd:
            return []
        return [f"r[{rd}] = 1 if {_sx(f'r[{rs}]')} < {_sx(f'r[{rt}]')} else 0"]
    if m == "sltu":
        return [f"r[{rd}] = 1 if r[{rs}] < r[{rt}] else 0"] if rd else []
    if m == "sll":
        return [f"r[{rd}] = (r[{rt}] << {shamt}) & 0xFFFFFFFF"] if rd else []
    if m == "srl":
        return [f"r[{rd}] = r[{rt}] >> {shamt}"] if rd else []
    if m == "sra":
        return [f"r[{rd}] = ({_sx(f'r[{rt}]')} >> {shamt}) & 0xFFFFFFFF"] if rd else []
    if m == "sllv":
        return [f"r[{rd}] = (r[{rt}] << (r[{rs}] & 31)) & 0xFFFFFFFF"] if rd else []
    if m == "srlv":
        return [f"r[{rd}] = r[{rt}] >> (r[{rs}] & 31)"] if rd else []
    if m == "srav":
        if not rd:
            return []
        return [f"r[{rd}] = ({_sx(f'r[{rt}]')} >> (r[{rs}] & 31)) & 0xFFFFFFFF"]

    # --- HI/LO and multiply/divide ----------------------------------
    if m == "mult":
        return [
            f"v = {_sx(f'r[{rs}]')} * {_sx(f'r[{rt}]')}",
            "hl[0] = (v >> 32) & 0xFFFFFFFF",
            "hl[1] = v & 0xFFFFFFFF",
        ]
    if m == "multu":
        return [
            f"v = r[{rs}] * r[{rt}]",
            "hl[0] = (v >> 32) & 0xFFFFFFFF",
            "hl[1] = v & 0xFFFFFFFF",
        ]
    if m == "div":
        return [
            f"x = {_sx(f'r[{rs}]')}",
            f"y = {_sx(f'r[{rt}]')}",
            "if y == 0:",
            "    hl[0] = hl[1] = 0",
            "else:",
            "    q = int(x / y)",
            "    hl[1] = q & 0xFFFFFFFF",
            "    hl[0] = (x - q * y) & 0xFFFFFFFF",
        ]
    if m == "divu":
        return [
            f"if r[{rt}] == 0:",
            "    hl[0] = hl[1] = 0",
            "else:",
            f"    hl[1] = r[{rs}] // r[{rt}]",
            f"    hl[0] = r[{rs}] % r[{rt}]",
        ]
    if m == "mfhi":
        return [f"r[{rd}] = hl[0]"] if rd else []
    if m == "mflo":
        return [f"r[{rd}] = hl[1]"] if rd else []
    if m == "mthi":
        return [f"hl[0] = r[{rs}]"]
    if m == "mtlo":
        return [f"hl[1] = r[{rs}]"]

    # --- I-type ALU ---------------------------------------------------
    if m in ("addi", "addiu"):
        return [f"r[{rt}] = (r[{rs}] + {imm}) & 0xFFFFFFFF"] if rt else []
    if m == "slti":
        return [f"r[{rt}] = 1 if {_sx(f'r[{rs}]')} < {imm} else 0"] if rt else []
    if m == "sltiu":
        return [f"r[{rt}] = 1 if r[{rs}] < {imm & _WORD_MASK} else 0"] if rt else []
    if m == "andi":
        return [f"r[{rt}] = r[{rs}] & {uimm}"] if rt else []
    if m == "ori":
        return [f"r[{rt}] = r[{rs}] | {uimm}"] if rt else []
    if m == "xori":
        return [f"r[{rt}] = r[{rs}] ^ {uimm}"] if rt else []
    if m == "lui":
        return [f"r[{rt}] = {(uimm << 16) & _WORD_MASK}"] if rt else []

    # --- loads / stores ---------------------------------------------
    if m in ("lw", "lwc1", "swc1", "sw", "lh", "lhu", "sh"):
        word = m in ("lw", "lwc1", "swc1", "sw")
        lines = [
            "st[0] += 1",
            f"a = (r[{rs}] + {imm}) & 0xFFFFFF",
            f"if a & {3 if word else 1}:",
            f'    raise EE(f"unaligned {m} at {{a:#x}} (pc {pc:#x})")',
        ]
        if m == "lw":
            if rt:
                lines.append(
                    f"r[{rt}] = (d[a] << 24) | (d[a + 1] << 16)"
                    " | (d[a + 2] << 8) | d[a + 3]"
                )
        elif m == "lwc1":
            fwd.invalidate(rt)
            fwd.raw_access(rt)
            lines.append(
                f"f[{rt}] = (d[a] << 24) | (d[a + 1] << 16)"
                " | (d[a + 2] << 8) | d[a + 3]"
            )
        elif m in ("sw", "swc1"):
            if m == "swc1":
                fwd.raw_access(rt)
            lines += [
                f"v = {'r' if m == 'sw' else 'f'}[{rt}]",
                "d[a] = (v >> 24) & 0xFF",
                "d[a + 1] = (v >> 16) & 0xFF",
                "d[a + 2] = (v >> 8) & 0xFF",
                "d[a + 3] = v & 0xFF",
            ]
        elif m == "lh":
            if rt:
                lines += [
                    "v = (d[a] << 8) | d[a + 1]",
                    f"r[{rt}] = (v - 0x10000 if v & 0x8000 else v) & 0xFFFFFFFF",
                ]
        elif m == "lhu":
            if rt:
                lines.append(f"r[{rt}] = (d[a] << 8) | d[a + 1]")
        else:  # sh
            lines += [
                f"d[a] = (r[{rt}] >> 8) & 0xFF",
                f"d[a + 1] = r[{rt}] & 0xFF",
            ]
        return lines
    if m == "lb":
        lines = ["st[0] += 1"]
        if rt:
            lines += [
                f"v = d[(r[{rs}] + {imm}) & 0xFFFFFF]",
                f"r[{rt}] = (v - 256 if v & 0x80 else v) & 0xFFFFFFFF",
            ]
        return lines
    if m == "lbu":
        lines = ["st[0] += 1"]
        if rt:
            lines.append(f"r[{rt}] = d[(r[{rs}] + {imm}) & 0xFFFFFF]")
        return lines
    if m == "sb":
        return [
            "st[0] += 1",
            f"d[(r[{rs}] + {imm}) & 0xFFFFFF] = r[{rt}] & 0xFF",
        ]

    # --- FP moves and arithmetic -------------------------------------
    if m == "mfc1":
        if not rt:
            return []
        fwd.raw_access(rd)
        return [f"r[{rt}] = f[{rd}]"]
    if m == "mtc1":
        fwd.invalidate(rd)
        fwd.raw_access(rd)
        return [f"f[{rd}] = r[{rt}]"]
    if m.startswith(("add.", "sub.", "mul.", "div.", "abs.", "neg.", "mov.")):
        fd, fs, ft = shamt, rd, rt
        double = m.endswith(".d")
        base = m.split(".")[0]
        if base == "mov":
            lines = [f"f[{fd}] = f[{fs}]"]
            if double:
                lines.append(f"f[{fd + 1}] = f[{fs + 1}]")
                fwd.raw_access(fs, fs + 1, fd, fd + 1)
                source_var = fwd.doubles.get(fs)
                fwd.invalidate(fd)
                fwd.invalidate(fd + 1)
                if source_var is not None:
                    fwd.doubles[fd] = source_var
            else:
                fwd.raw_access(fs, fd)
                fwd.invalidate(fd)
            return lines
        if base in ("abs", "neg"):
            # Pure sign-bit manipulation: cheaper on the packed words.
            mask_op = "^ 0x80000000" if base == "neg" else "& 0x7FFFFFFF"
            lines = [f"f[{fd}] = f[{fs}] {mask_op}"]
            fwd.raw_access(fs, fd)
            fwd.invalidate(fd)
            if double:
                lines.append(f"f[{fd + 1}] = f[{fs + 1}]")
                fwd.raw_access(fs + 1, fd + 1)
                fwd.invalidate(fd + 1)
            return lines
        operator = {"add": "{x} + {y}", "sub": "{x} - {y}", "mul": "{x} * {y}"}.get(base)
        if operator is None:  # div: mirror the signed-zero-safe closure
            operator = '{x} / {y} if {y} != 0.0 else float("inf") * (1 if {x} >= 0 else -1)'
        if double:
            lines = []
            x = fwd.ensure_double(lines, fs)
            y = fwd.ensure_double(lines, ft)
            result = fwd.temp()
            lines.append(f"{result} = " + operator.format(x=x, y=y))
            fwd.store_double(lines, fd, result)
            return lines
        fwd.raw_access(fs, ft, fd)
        fwd.invalidate(fd)
        return [
            _load_float("x", fs),
            _load_float("y", ft),
            f"f[{fd}] = UI(PF({operator.format(x='x', y='y')}))[0]",
        ]
    if m.startswith("cvt."):
        fd, fs = shamt, rd
        _, to_kind, from_kind = m.split(".")
        lines = []
        if from_kind == "d":
            x = fwd.ensure_double(lines, fs)
        elif from_kind == "s":
            fwd.raw_access(fs)
            lines.append(_load_float("x", fs))
            x = "x"
        else:
            fwd.raw_access(fs)
            lines.append(f"x = {_sx(f'f[{fs}]')}")
            x = "x"
        if to_kind == "d":
            result = fwd.temp()
            lines.append(f"{result} = float({x})")
            fwd.store_double(lines, fd, result)
        elif to_kind == "s":
            fwd.raw_access(fd)
            lines.append(f"f[{fd}] = UI(PF(float({x})))[0]")
            fwd.invalidate(fd)
        else:  # to word: truncate toward zero, C-style
            fwd.raw_access(fd)
            lines.append(f"f[{fd}] = int({x}) & 0xFFFFFFFF")
            fwd.invalidate(fd)
        return lines
    if m.startswith("c."):
        fs, ft = rd, rt
        condition = m.split(".")[1]
        lines = []
        if m.endswith(".d"):
            x = fwd.ensure_double(lines, fs)
            y = fwd.ensure_double(lines, ft)
        else:
            fwd.raw_access(fs, ft)
            lines += [_load_float("x", fs), _load_float("y", ft)]
            x, y = "x", "y"
        comparison = {"eq": f"{x} == {y}", "lt": f"{x} < {y}"}.get(
            condition, f"{x} <= {y}"
        )
        lines.append(f"cc[0] = 1 if {comparison} else 0")
        return lines

    # lwl/lwr/swl/swr, syscall, break, and anything exotic: keep the
    # battle-tested closure.
    return None


#: Condition expressions of the plain conditional branches, mirroring
#: their closures in :meth:`Machine._compile`.  Truthiness matches the
#: closure's taken/not-taken decision exactly (``bltz`` yields the raw
#: sign bit, which Python treats as true precisely when the closure
#: branches).
_BRANCH_CONDITIONS = {
    "beq": "r[{rs}] == r[{rt}]",
    "bne": "r[{rs}] != r[{rt}]",
    "blez": "(r[{rs}] - ((r[{rs}] & 0x80000000) << 1)) <= 0",
    "bgtz": "(r[{rs}] - ((r[{rs}] & 0x80000000) << 1)) > 0",
    "bltz": "r[{rs}] & 0x80000000",
    "bgez": "not (r[{rs}] & 0x80000000)",
    "bltzal": "r[{rs}] & 0x80000000",
    "bgezal": "not (r[{rs}] & 0x80000000)",
    "bc1t": "cc[0] == 1",
    "bc1f": "cc[0] == 0",
}


def _emit_terminator(
    instruction: Instruction, pc: int, end: int = 0
) -> tuple[list[str], str, int | None] | None:
    """``(setup_lines, return_expr, conditional_target)`` for a control
    transfer, or ``None`` to keep its closure.

    ``setup_lines`` evaluate the branch condition (and perform link-
    register writes) *before* the delay slot, exactly as the reference
    loop calls the branch closure first; ``return_expr`` — the next pc:
    the taken target, or ``end`` (the address past the delay slot) for
    a not-taken branch — evaluates after the slot.  ``conditional_target``
    is the static target of a conditional branch (the loop fuser needs
    to know both the target and that the terminator can fall through),
    ``None`` for jumps.
    """
    m = instruction.mnemonic
    condition = _BRANCH_CONDITIONS.get(m)
    if condition is not None:
        target = (pc + 4 + (instruction.imm_signed << 2)) & _MEM_MASK
        setup = []
        if m in ("bltzal", "bgezal"):
            # The closure writes $ra before reading the condition.
            setup.append(f"r[31] = {(pc + 8) & _MEM_MASK}")
        setup.append(
            "taken = " + condition.format(rs=instruction.rs, rt=instruction.rt)
        )
        return setup, f"{target} if taken else {end}", target
    if m in ("j", "jal"):
        target = ((pc + 4) & 0xF000_0000) | (instruction.target << 2)
        setup = [f"r[31] = {(pc + 8) & _MEM_MASK}"] if m == "jal" else []
        return setup, str(target), None
    if m == "jr":
        return [f"t = r[{instruction.rs}]"], "t", None
    if m == "jalr":
        setup = [f"t = r[{instruction.rs}]"]
        if instruction.rd:
            setup.append(f"r[{instruction.rd}] = {(pc + 8) & _MEM_MASK}")
        return setup, "t", None
    return None


_SU_HEADER = (
    "r=_R, f=_F, hl=_HL, cc=_CC, d=_D, st=_ST, _o=_O, EE=_EE, "
    "PF=_F32.pack, UF=_F32.unpack, PI=_U32.pack, UI=_U32.unpack, "
    "PD=_F64.pack, UD=_F64.unpack, PQ=_U64.pack, UQ=_U64.unpack"
)


def _wrap_superop(lines: list[str], loop: bool = False) -> str:
    header = f"def _su({'budget, ' if loop else ''}{_SU_HEADER}):"
    return header + "\n" + "\n".join("    " + line for line in lines)


def _block_source(
    entries: list[tuple[Instruction, int]],
    branch_entry: tuple[Instruction, int] | None,
    slot_entry: tuple[Instruction, int] | None,
    pc: int,
    end: int,
) -> tuple[str, int, int | None]:
    """``(source, mode, taken_target)`` of the fused function for one block.

    ``entries`` pairs each straight-line op with its address; the op's
    position in the list is also its index into the block's closure
    tuple ``_o``.  ``branch_entry``/``slot_entry`` carry a closing
    control transfer and its delay slot (``None`` for fall-through
    blocks); ``end`` is the address past the block.  Fall-through
    blocks and blocks whose terminator and slot both have emitters
    compile to a superop returning the *next pc* (:data:`_M_INLINE`);
    a conditional branch targeting the block's own entry becomes a
    generated loop (:data:`_M_LOOP`: ``superop(budget)`` runs up to
    ``budget`` iterations and returns the count, negated when it
    exited with the branch still taken).  Otherwise the branch and slot
    keep their closures (:data:`_M_CLOSURE`).
    """
    forward = _ForwardState()
    body: list[str] = []
    for k, (instruction, address) in enumerate(entries):
        emitted = _emit_instruction(instruction, address, forward)
        if emitted is None:
            body.append(f"_o[{k}]()")
            forward.clear()  # the closure's effects are opaque here
        else:
            body.extend(emitted)
    if branch_entry is None:
        return _wrap_superop(body + [f"return {end}"]), _M_INLINE, None
    terminator = _emit_terminator(*branch_entry, end)
    slot_lines = (
        _emit_instruction(*slot_entry, forward) if terminator is not None else None
    )
    if terminator is None or slot_lines is None:
        return _wrap_superop(body or ["pass"]), _M_CLOSURE, None
    setup, return_expr, conditional_target = terminator
    if conditional_target == pc and conditional_target is not None:
        # Self-loop: re-emit with FP pair loads hoisted above the loop.
        # The first emission pass doubles as the discovery pass: a pair
        # whose first access was a read (load before any write) gets its
        # load in a prelude; a pair still forwarded at the loop bottom
        # carries its value into the next iteration through a cheap
        # name rotation instead of a reconversion.  Both passes emit
        # identical instruction semantics, so forwarding trajectories
        # match and every seeded pair is live at the bottom.
        seedable = sorted(
            p for p in forward.seed_candidates if p in forward.doubles
        )
        # Pairs only ever written as doubles, never touched word-wise,
        # keep their value in a local: the pack + two word stores move
        # from the loop body to the exit branch.  Overlapping pairs (odd
        # bases alias even ones) and blocks with opaque fallback ops
        # fall back to the immediate write, which is always correct.
        sinkable = frozenset(
            p
            for p in forward.double_writes
            if not forward.opaque
            and p not in forward.raw
            and p + 1 not in forward.raw
            and p - 1 not in forward.double_writes
            and p + 1 not in forward.double_writes
        )
        state = _ForwardState()
        state.sink_pairs = sinkable
        prelude: list[str] = []
        seeds = {p: state.ensure_double(prelude, p) for p in seedable}
        loop_body: list[str] = []
        for k, (instruction, address) in enumerate(entries):
            emitted = _emit_instruction(instruction, address, state)
            if emitted is None:
                loop_body.append(f"_o[{k}]()")
                state.clear()
            else:
                loop_body.extend(emitted)
        loop_setup, _, _ = _emit_terminator(*branch_entry)
        loop_slot = _emit_instruction(*slot_entry, state)
        rotations = [
            f"{seeds[p]} = {state.doubles[p]}"
            for p in seedable
            if state.doubles[p] != seeds[p]
        ]
        # Flush sunk pairs in last-write order so aliasing writes land
        # exactly as the immediate path would have left them.  The body
        # is straight-line, so every pending pair was written this
        # iteration and its temp holds the final value.
        flush: list[str] = []
        for p, var in state.pending.items():
            flush += [
                f"    v = UQ(PD({var}))[0]",
                f"    f[{p}] = (v >> 32) & 0xFFFFFFFF",
                f"    f[{p + 1}] = v & 0xFFFFFFFF",
            ]
        inner = loop_body + loop_setup + loop_slot + rotations + [
            "k += 1",
            "if k >= budget or not taken:",
            *flush,
            "    return -k if taken else k",
        ]
        lines = prelude + ["k = 0", "while True:"] + [
            "    " + line for line in inner
        ]
        return _wrap_superop(lines, loop=True), _M_LOOP, conditional_target
    lines = body + setup + slot_lines + [f"return {return_expr}"]
    return _wrap_superop(lines), _M_INLINE, None


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
        block_mode: bool = True,
    ) -> None:
        self.program = program
        self.stall_model = stall_model
        self.block_mode = block_mode
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
        if self.block_mode:
            self._ops = _LazyOps(
                self._compile, program.instructions, program.text_base
            )
        else:
            self._ops = [
                self._compile(instruction, program.text_base + 4 * index)
                for index, instruction in enumerate(program.instructions)
            ]
        # Superop-engine state, built lazily on the first block-mode run.
        self._leaders: set[int] | None = None
        self._shared = _program_cache(program) if self.block_mode else None
        self._blocks: list[_Block] = []
        # Dispatch records keyed by entry pc.  The tuple layout varies by
        # mode (record[3]): (n, superop, block_id, 1) for compiled blocks
        # returning the next pc, (n, superop, block_id, 3, head, end,
        # pattern) for generated loops, (n, fn, block_id, 0, end) for
        # fall-through warmups, (n, fn, block_id, 2, branch, slot, end)
        # for closure terminators.  ``False`` marks unfusable entries.
        self._record_at: dict[int, tuple | bool] = {}
        self._single_id_at: dict[int, int] = {}  # pc -> singleton block id

    # ------------------------------------------------------------------
    # Interpreter loop
    # ------------------------------------------------------------------

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

        The basic-block superop engine (the default) and the
        per-instruction reference interpreter (``block_mode=False``)
        produce identical results — trace bytes, registers, output, and
        stall cycles — property-tested against each other across the
        workload suite.
        """
        if self.block_mode:
            return self._run_blocks(max_instructions, stop_at_limit)
        return self._run_simple(max_instructions, stop_at_limit)

    def _run_simple(
        self, max_instructions: int, stop_at_limit: bool
    ) -> ExecutionResult:
        """The reference per-instruction interpreter loop."""
        program = self.program
        ops = self._ops
        base = program.text_base
        top = base + len(ops) * 4
        trace: list[int] = []
        append = trace.append
        pc = program.entry
        npc = pc + 4
        executed = 0
        exit_code = 0
        try:
            while executed < max_instructions:
                if not base <= pc < top:
                    raise ExecutionError(f"PC {pc:#x} outside text segment")
                append(pc)
                target = ops[(pc - base) >> 2]()
                executed += 1
                pc = npc
                npc = pc + 4 if target is None else target
            if not stop_at_limit:
                raise ExecutionError(
                    f"instruction limit {max_instructions} reached without exit"
                )
        except _Halt as halt:
            exit_code = halt.exit_code
            executed = len(trace)  # the exiting syscall itself executed

        addresses = np.array(trace, dtype=np.uint32)
        execution_trace = ExecutionTrace(
            addresses=addresses,
            text_base=program.text_base,
            text_size=len(program.text),
        )
        stall_cycles = self.stall_model.stall_cycles(
            execution_trace.instruction_indices, program.instructions
        )
        return self._result(execution_trace, executed, stall_cycles, exit_code)

    # ------------------------------------------------------------------
    # Basic-block superop engine
    # ------------------------------------------------------------------

    def _run_blocks(
        self, max_instructions: int, stop_at_limit: bool
    ) -> ExecutionResult:
        """Interpret at basic-block granularity: one dispatch and one
        trace event per block instead of per instruction.

        Sequential control flow (``npc == pc + 4``) executes whole fused
        blocks; anything unusual — a pending branch target from a delay
        slot, a block bigger than the remaining instruction budget, a
        control transfer with no in-text delay slot — falls back to
        single-instruction events with the reference loop's exact
        semantics, so the two engines are equivalent by construction.
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
                if not base <= pc < top:
                    raise ExecutionError(f"PC {pc:#x} outside text segment")
                if npc == pc + 4:
                    record = get_record(pc)
                    if record is None:
                        record = self._make_block(pc)
                    if record is not False:
                        n = record[0]
                        remaining = max_instructions - executed
                        if n <= remaining:
                            mode = record[3]
                            if mode == 1:  # compiled: returns the next pc
                                append(record[2])
                                executed += n
                                pc = record[1]()
                                npc = pc + 4
                            elif mode == 3:  # generated loop (self or chain)
                                k = record[1](remaining // n)
                                if k < 0:
                                    k = -k
                                    pc = record[4]  # taken: back to the head
                                else:
                                    pc = record[5]
                                npc = pc + 4
                                executed += k * n
                                pattern = record[6]
                                if k == 1:
                                    extend(pattern)
                                else:
                                    extend(pattern * k)
                            elif mode == 0:  # fall-through warmup
                                append(record[2])
                                executed += n
                                record[1]()
                                pc = record[4]
                                npc = pc + 4
                            else:  # closure terminator (warmup/fallback)
                                append(record[2])
                                executed += n
                                record[1]()
                                taken = record[4]()
                                slot_target = record[5]()
                                pc = record[6] if taken is None else taken
                                npc = pc + 4 if slot_target is None else slot_target
                            continue
                # Single-step fallback: exact per-instruction semantics.
                append(self._single_id(pc))
                executed += 1
                target = ops[(pc - base) >> 2]()
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

        if self._shared is not None:
            _store_shared(program, self._shared)
        block_trace = BlockTrace(
            events=np.array(events, dtype=np.int32),
            block_addresses=tuple(block.addresses for block in self._blocks),
            text_base=program.text_base,
            text_size=len(program.text),
        )
        execution_trace = ExecutionTrace(
            text_base=program.text_base,
            text_size=len(program.text),
            blocks=block_trace,
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
        return self._result(execution_trace, executed, stall_cycles, exit_code)

    def _result(
        self,
        execution_trace: ExecutionTrace,
        executed: int,
        stall_cycles: int,
        exit_code: int,
    ) -> ExecutionResult:
        return ExecutionResult(
            trace=execution_trace,
            instructions_executed=executed,
            data_accesses=self._stats[0],
            stall_cycles=stall_cycles,
            output="".join(self._output),
            exit_code=exit_code,
            registers=tuple(self.regs),
        )

    def _make_block(self, pc: int) -> int:
        """Build and register the fused block entered at ``pc``.

        Returns the block's dispatch record, or ``False`` when no
        multi-instruction block can start here (a control transfer whose
        delay slot falls outside the text segment) — the engine then
        single-steps.
        """
        if self._leaders is None:
            shared = self._shared
            if shared is not None and shared["leaders"] is not None:
                self._leaders = shared["leaders"]
            else:
                self._leaders = find_leaders(
                    self.program.instructions,
                    self.program.text_base,
                    split_after_syscalls=True,
                )
                if shared is not None:
                    shared["leaders"] = self._leaders
                    shared["dirty"] = True
        base = self.program.text_base
        top = base + len(self._ops) * 4
        instructions = self.program.instructions
        leaders = self._leaders
        ops: list = []
        entries: list[tuple[Instruction, int]] = []
        address = pc
        kind = _FALL
        branch_op = None
        slot_op = None
        branch_entry: tuple[Instruction, int] | None = None
        slot_entry: tuple[Instruction, int] | None = None
        end = pc
        while address < top:
            instruction = instructions[(address - base) >> 2]
            if instruction.spec.is_control_transfer:
                if address + 8 > top:
                    # No in-text delay slot: leave the transfer to the
                    # single-step path (it will fault like the reference
                    # loop when control runs off the segment).
                    end = address
                    break
                kind = _BRANCH
                branch_op = self._ops[(address - base) >> 2]
                slot_op = self._ops[(address + 4 - base) >> 2]
                branch_entry = (instruction, address)
                slot_entry = (instructions[(address + 4 - base) >> 2], address + 4)
                end = address + 8
                break
            ops.append(self._ops[(address - base) >> 2])
            entries.append((instruction, address))
            address += 4
            end = address
            if instruction.mnemonic in ("syscall", "break"):
                break
            if address in leaders:
                break
        addresses = np.arange(pc, end, 4, dtype=np.uint32)
        if len(addresses) == 0:
            self._record_at[pc] = False
            return False
        fused_ops = tuple(ops)
        block = _Block(
            kind=kind,
            ops=fused_ops,
            superop=None,
            branch=branch_op,
            slot=slot_op,
            addresses=addresses,
            end=end,
        )
        block_id = len(self._blocks)
        self._blocks.append(block)
        # Register before fusing: building a fused loop record calls
        # back into _make_block for the loop's member blocks, which must
        # see this block instead of re-scanning it.
        self._record_at[pc] = False
        codes = self._shared["codes"] if self._shared is not None else {}
        if pc in codes:
            # Another machine already compiled this block: fuse for free.
            record = self._fuse(
                pc, entries, branch_entry, slot_entry, fused_ops, block.n,
                end, branch_op, slot_op, block_id,
            )
            block.superop = record[1]
        else:
            # Defer compilation until the block proves hot; cold blocks
            # run the closure loop, which is cheaper than compiling.  The
            # warmup record keeps closure-terminator semantics; the fused
            # record installed at the threshold takes over from the
            # *next* dispatch (this dispatch already read the old record,
            # so its branch/slot closures still run).
            budget = [max(_FUSE_MIN_EXECUTIONS, _FUSE_INSTRUCTIONS // block.n)]

            def warmup():
                budget[0] -= 1
                if budget[0] <= 0:
                    fused = self._fuse(
                        pc, entries, branch_entry, slot_entry, fused_ops,
                        block.n, end, branch_op, slot_op, block_id,
                    )
                    block.superop = fused[1]
                    self._record_at[pc] = fused
                for op in fused_ops:
                    op()

            if branch_op is None:
                record = (block.n, warmup, block_id, _M_FALL, end)
            else:
                record = (
                    block.n, warmup, block_id, _M_CLOSURE,
                    branch_op, slot_op, end,
                )
        self._record_at[pc] = record
        return record

    #: Bounds on the fall-through chain considered for multi-block loops.
    _CHAIN_MAX_BLOCKS = 8
    _CHAIN_MAX_INSTRUCTIONS = 512

    def _fuse(
        self,
        pc: int,
        entries: list[tuple[Instruction, int]],
        branch_entry: tuple[Instruction, int] | None,
        slot_entry: tuple[Instruction, int] | None,
        ops: tuple,
        n: int,
        end: int,
        branch_op,
        slot_op,
        block_id: int,
    ) -> tuple:
        """Compile one block into a single function; return its record.

        Code objects (plus dispatch mode and loop payload) are shared
        across machines running the same program; a generator bug
        surfacing as a compile error degrades to looping over the
        closures, never to wrong execution.
        """
        codes = self._shared["codes"] if self._shared is not None else {}
        cached = codes.get(pc)
        if cached is None:
            cached = self._compile_block(
                pc, entries, branch_entry, slot_entry, end, codes
            )
            if cached is None:  # pragma: no cover - emitter bug safety net
                def runner():
                    for op in ops:
                        op()
                if branch_op is None:
                    return (n, runner, block_id, _M_FALL, end)
                return (n, runner, block_id, _M_CLOSURE, branch_op, slot_op, end)
        code, mode, payload = cached
        if mode == _M_LOOP:
            record = self._loop_record(pc, code, payload, block_id)
            if record is not None:
                return record
            # A member block stopped being fusable (stale cache entry):
            # recompile as a plain block.
            del codes[pc]
            cached = self._compile_block(
                pc, entries, branch_entry, slot_entry, end, codes,
                allow_chain=False,
            )
            if cached is None:  # pragma: no cover - emitter bug safety net
                def runner():
                    for op in ops:
                        op()
                return (n, runner, block_id, _M_FALL, end)
            code, mode, payload = cached
        namespace = self._superop_namespace(ops)
        exec(code, namespace)
        superop = namespace["_su"]
        if mode == _M_LOOP:
            loop_n, loop_end, _ = payload
            return (loop_n, superop, block_id, _M_LOOP, pc, loop_end, [block_id])
        if mode == _M_CLOSURE:
            return (n, superop, block_id, _M_CLOSURE, branch_op, slot_op, end)
        return (n, superop, block_id, _M_INLINE)

    def _compile_block(
        self,
        pc: int,
        entries: list[tuple[Instruction, int]],
        branch_entry: tuple[Instruction, int] | None,
        slot_entry: tuple[Instruction, int] | None,
        end: int,
        codes: dict,
        allow_chain: bool = True,
    ) -> tuple | None:
        """Compile the block (or the loop it heads) into ``codes[pc]``.

        Returns the stored ``(code, mode, payload)`` entry, or ``None``
        when compilation failed.  Loop payloads are ``(n, end, starts)``
        — instructions per iteration, the not-taken exit address, and
        the member-block start addresses (head first).
        """
        source = mode = target = None
        payload: object = None
        if (
            allow_chain
            and branch_entry is None
            and entries
            and entries[-1][0].mnemonic not in ("syscall", "break")
        ):
            chain = self._find_chain(pc, end)
            if chain is not None:
                extra, c_branch, c_slot, starts, loop_end = chain
                source, mode, target = _block_source(
                    entries + extra, c_branch, c_slot, pc, loop_end
                )
                if mode == _M_LOOP:
                    payload = (
                        len(entries) + len(extra) + 2,
                        loop_end,
                        tuple(starts),
                    )
                else:  # the loop's delay slot defeated inlining
                    source = None
        if source is None:
            source, mode, target = _block_source(
                entries, branch_entry, slot_entry, pc, end
            )
            payload = (len(entries) + 2, end, (pc,)) if mode == _M_LOOP else target
        try:
            code = compile(source, f"<superop:{pc:#x}>", "exec")
        except Exception:  # pragma: no cover - emitter bug safety net
            return None
        entry = codes[pc] = (code, mode, payload)
        if self._shared is not None:
            self._shared["dirty"] = True
        return entry

    def _find_chain(self, pc: int, end: int) -> tuple | None:
        """Fall-through blocks after ``end`` closed by a branch to ``pc``.

        Walks the blocks following the head block ``[pc, end)`` exactly
        as :meth:`_make_block` would carve them.  A simple loop — pure
        fall-through members ending in a conditional branch back to the
        head, with an emittable delay slot — returns ``(extra entries,
        branch entry, slot entry, member starts, end past the slot)``;
        anything else (side exits, syscalls, indirect jumps, a region
        over the size bounds) returns ``None``.
        """
        base = self.program.text_base
        top = base + len(self._ops) * 4
        instructions = self.program.instructions
        leaders = self._leaders
        starts = [pc]
        extra: list[tuple[Instruction, int]] = []
        address = end
        count = (end - pc) >> 2
        while address < top and len(starts) < self._CHAIN_MAX_BLOCKS:
            starts.append(address)
            while address < top:
                instruction = instructions[(address - base) >> 2]
                if instruction.spec.is_control_transfer:
                    if address + 8 > top:
                        return None  # delay slot outside the text segment
                    terminator = _emit_terminator(instruction, address)
                    if terminator is None or terminator[2] != pc:
                        return None  # not a conditional branch to the head
                    slot_instruction = instructions[(address + 4 - base) >> 2]
                    if _emit_instruction(slot_instruction, address + 4) is None:
                        return None
                    return (
                        extra,
                        (instruction, address),
                        (slot_instruction, address + 4),
                        starts,
                        address + 8,
                    )
                if instruction.mnemonic in ("syscall", "break"):
                    return None
                extra.append((instruction, address))
                count += 1
                if count > self._CHAIN_MAX_INSTRUCTIONS:
                    return None
                address += 4
                if address in leaders:
                    break  # the next chain member starts here
        return None

    def _loop_record(self, pc: int, code, payload: tuple, block_id: int) -> tuple:
        """Dispatch record for a compiled loop superop headed at ``pc``.

        Builds the loop's member blocks (so their trace events resolve)
        and binds the closure tuple spanning the whole contiguous loop
        body.  Returns ``None`` if a member is unfusable — only possible
        for a stale cache entry, never for a loop found by
        :meth:`_find_chain` this run.
        """
        n, end, starts = payload
        pattern = [block_id]
        for start in starts[1:]:
            member = self._record_at.get(start)
            if member is None:
                member = self._make_block(start)
            if member is False:
                return None
            pattern.append(member[2])
        base = self.program.text_base
        combined = tuple(
            self._ops[(pc - base) >> 2 : (end - 8 - base) >> 2]
        )
        namespace = self._superop_namespace(combined)
        exec(code, namespace)
        return (n, namespace["_su"], block_id, _M_LOOP, pc, end, pattern)

    def _superop_namespace(self, ops: tuple) -> dict:
        return {
            "_R": self.regs,
            "_F": self.fpr,
            "_HL": self.hilo,
            "_CC": self.fcc,
            "_D": self.memory.data,
            "_ST": self._stats,
            "_O": ops,
            "_EE": ExecutionError,
            "_F32": _F32,
            "_U32": _U32,
            "_F64": _F64,
            "_U64": _U64,
        }

    def _single_id(self, pc: int) -> int:
        """Block id of the one-instruction event at ``pc`` (cached)."""
        single_id = self._single_id_at.get(pc)
        if single_id is None:
            block = _Block(
                kind=_FALL,
                ops=(),
                superop=None,
                branch=None,
                slot=None,
                addresses=np.array([pc], dtype=np.uint32),
                end=pc + 4,
            )
            single_id = len(self._blocks)
            self._blocks.append(block)
            self._single_id_at[pc] = single_id
        return single_id

    # ------------------------------------------------------------------
    # Instruction compilation
    # ------------------------------------------------------------------

    def _compile(self, instruction: Instruction, pc: int):
        """Build the closure executing ``instruction`` located at ``pc``.

        The closure returns the branch/jump target when control transfers,
        otherwise ``None``.
        """
        m = instruction.mnemonic
        regs = self.regs
        fpr = self.fpr
        hilo = self.hilo
        fcc = self.fcc
        data = self.memory.data
        stats = self._stats
        rs, rt, rd = instruction.rs, instruction.rt, instruction.rd
        shamt = instruction.shamt
        imm = instruction.imm_signed
        uimm = instruction.imm_unsigned

        # --- integer R-type --------------------------------------------
        if m in ("add", "addu"):
            def op():
                if rd:
                    regs[rd] = (regs[rs] + regs[rt]) & _WORD_MASK
            return op
        if m in ("sub", "subu"):
            def op():
                if rd:
                    regs[rd] = (regs[rs] - regs[rt]) & _WORD_MASK
            return op
        if m == "and":
            def op():
                if rd:
                    regs[rd] = regs[rs] & regs[rt]
            return op
        if m == "or":
            def op():
                if rd:
                    regs[rd] = regs[rs] | regs[rt]
            return op
        if m == "xor":
            def op():
                if rd:
                    regs[rd] = regs[rs] ^ regs[rt]
            return op
        if m == "nor":
            def op():
                if rd:
                    regs[rd] = ~(regs[rs] | regs[rt]) & _WORD_MASK
            return op
        if m == "slt":
            def op():
                if rd:
                    regs[rd] = 1 if _signed(regs[rs]) < _signed(regs[rt]) else 0
            return op
        if m == "sltu":
            def op():
                if rd:
                    regs[rd] = 1 if regs[rs] < regs[rt] else 0
            return op
        if m == "sll":
            def op():
                if rd:
                    regs[rd] = (regs[rt] << shamt) & _WORD_MASK
            return op
        if m == "srl":
            def op():
                if rd:
                    regs[rd] = regs[rt] >> shamt
            return op
        if m == "sra":
            def op():
                if rd:
                    regs[rd] = (_signed(regs[rt]) >> shamt) & _WORD_MASK
            return op
        if m == "sllv":
            def op():
                if rd:
                    regs[rd] = (regs[rt] << (regs[rs] & 31)) & _WORD_MASK
            return op
        if m == "srlv":
            def op():
                if rd:
                    regs[rd] = regs[rt] >> (regs[rs] & 31)
            return op
        if m == "srav":
            def op():
                if rd:
                    regs[rd] = (_signed(regs[rt]) >> (regs[rs] & 31)) & _WORD_MASK
            return op

        # --- HI/LO and multiply/divide ----------------------------------
        if m == "mult":
            def op():
                product = _signed(regs[rs]) * _signed(regs[rt])
                hilo[0] = (product >> 32) & _WORD_MASK
                hilo[1] = product & _WORD_MASK
            return op
        if m == "multu":
            def op():
                product = regs[rs] * regs[rt]
                hilo[0] = (product >> 32) & _WORD_MASK
                hilo[1] = product & _WORD_MASK
            return op
        if m == "div":
            def op():
                dividend, divisor = _signed(regs[rs]), _signed(regs[rt])
                if divisor == 0:
                    hilo[0] = hilo[1] = 0  # UNPREDICTABLE on hardware
                else:
                    quotient = int(dividend / divisor)  # truncate toward zero
                    hilo[1] = quotient & _WORD_MASK
                    hilo[0] = (dividend - quotient * divisor) & _WORD_MASK
            return op
        if m == "divu":
            def op():
                if regs[rt] == 0:
                    hilo[0] = hilo[1] = 0
                else:
                    hilo[1] = regs[rs] // regs[rt]
                    hilo[0] = regs[rs] % regs[rt]
            return op
        if m == "mfhi":
            def op():
                if rd:
                    regs[rd] = hilo[0]
            return op
        if m == "mflo":
            def op():
                if rd:
                    regs[rd] = hilo[1]
            return op
        if m == "mthi":
            def op():
                hilo[0] = regs[rs]
            return op
        if m == "mtlo":
            def op():
                hilo[1] = regs[rs]
            return op

        # --- I-type ALU ---------------------------------------------------
        if m in ("addi", "addiu"):
            def op():
                if rt:
                    regs[rt] = (regs[rs] + imm) & _WORD_MASK
            return op
        if m == "slti":
            def op():
                if rt:
                    regs[rt] = 1 if _signed(regs[rs]) < imm else 0
            return op
        if m == "sltiu":
            def op():
                if rt:
                    regs[rt] = 1 if regs[rs] < (imm & _WORD_MASK) else 0
            return op
        if m == "andi":
            def op():
                if rt:
                    regs[rt] = regs[rs] & uimm
            return op
        if m == "ori":
            def op():
                if rt:
                    regs[rt] = regs[rs] | uimm
            return op
        if m == "xori":
            def op():
                if rt:
                    regs[rt] = regs[rs] ^ uimm
            return op
        if m == "lui":
            value = (uimm << 16) & _WORD_MASK
            def op():
                if rt:
                    regs[rt] = value
            return op

        # --- loads / stores -------------------------------------------------
        if m == "lw":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                if address & 3:
                    raise ExecutionError(f"unaligned lw at {address:#x} (pc {pc:#x})")
                if rt:
                    regs[rt] = (
                        (data[address] << 24)
                        | (data[address + 1] << 16)
                        | (data[address + 2] << 8)
                        | data[address + 3]
                    )
            return op
        if m == "sw":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                if address & 3:
                    raise ExecutionError(f"unaligned sw at {address:#x} (pc {pc:#x})")
                value = regs[rt]
                data[address] = (value >> 24) & 0xFF
                data[address + 1] = (value >> 16) & 0xFF
                data[address + 2] = (value >> 8) & 0xFF
                data[address + 3] = value & 0xFF
            return op
        if m == "lb":
            def op():
                stats[0] += 1
                value = data[(regs[rs] + imm) & _MEM_MASK]
                if rt:
                    regs[rt] = value - 256 if value & 0x80 else value
                    regs[rt] &= _WORD_MASK
            return op
        if m == "lbu":
            def op():
                stats[0] += 1
                if rt:
                    regs[rt] = data[(regs[rs] + imm) & _MEM_MASK]
            return op
        if m == "sb":
            def op():
                stats[0] += 1
                data[(regs[rs] + imm) & _MEM_MASK] = regs[rt] & 0xFF
            return op
        if m == "lh":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                if address & 1:
                    raise ExecutionError(f"unaligned lh at {address:#x} (pc {pc:#x})")
                value = (data[address] << 8) | data[address + 1]
                if rt:
                    regs[rt] = (value - 0x10000 if value & 0x8000 else value) & _WORD_MASK
            return op
        if m == "lhu":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                if address & 1:
                    raise ExecutionError(f"unaligned lhu at {address:#x} (pc {pc:#x})")
                if rt:
                    regs[rt] = (data[address] << 8) | data[address + 1]
            return op
        if m == "sh":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                if address & 1:
                    raise ExecutionError(f"unaligned sh at {address:#x} (pc {pc:#x})")
                data[address] = (regs[rt] >> 8) & 0xFF
                data[address + 1] = regs[rt] & 0xFF
            return op

        # --- unaligned-access pairs (big-endian LWL/LWR/SWL/SWR) --------
        def _read_aligned(address: int) -> int:
            base = address & ~3
            return (
                (data[base] << 24)
                | (data[base + 1] << 16)
                | (data[base + 2] << 8)
                | data[base + 3]
            )

        def _write_aligned(address: int, value: int) -> None:
            base = address & ~3
            data[base] = (value >> 24) & 0xFF
            data[base + 1] = (value >> 16) & 0xFF
            data[base + 2] = (value >> 8) & 0xFF
            data[base + 3] = value & 0xFF

        if m == "lwl":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                offset = address & 3
                word = _read_aligned(address)
                if rt:
                    keep = (1 << (8 * offset)) - 1
                    regs[rt] = ((word << (8 * offset)) & _WORD_MASK) | (regs[rt] & keep)
            return op
        if m == "lwr":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                offset = address & 3
                word = _read_aligned(address)
                if rt:
                    mask = (1 << (8 * (offset + 1))) - 1
                    regs[rt] = (regs[rt] & ~mask & _WORD_MASK) | (
                        (word >> (8 * (3 - offset))) & mask
                    )
            return op
        if m == "swl":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                offset = address & 3
                word = _read_aligned(address)
                low_mask = (1 << (8 * (4 - offset))) - 1
                merged = (word & ~low_mask & _WORD_MASK) | (regs[rt] >> (8 * offset))
                _write_aligned(address, merged)
            return op
        if m == "swr":
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                offset = address & 3
                word = _read_aligned(address)
                keep = (1 << (8 * (3 - offset))) - 1
                merged = (word & keep) | (
                    (regs[rt] << (8 * (3 - offset))) & _WORD_MASK & ~keep
                )
                _write_aligned(address, merged)
            return op

        # --- branches ---------------------------------------------------------
        branch_target = (pc + 4 + (imm << 2)) & _MEM_MASK
        if m == "beq":
            def op():
                return branch_target if regs[rs] == regs[rt] else None
            return op
        if m == "bne":
            def op():
                return branch_target if regs[rs] != regs[rt] else None
            return op
        if m == "blez":
            def op():
                return branch_target if _signed(regs[rs]) <= 0 else None
            return op
        if m == "bgtz":
            def op():
                return branch_target if _signed(regs[rs]) > 0 else None
            return op
        if m == "bltz":
            def op():
                return branch_target if regs[rs] & 0x8000_0000 else None
            return op
        if m == "bgez":
            def op():
                return None if regs[rs] & 0x8000_0000 else branch_target
            return op
        if m in ("bltzal", "bgezal"):
            link = (pc + 8) & _MEM_MASK
            negative = m == "bltzal"
            def op():
                regs[31] = link
                taken = bool(regs[rs] & 0x8000_0000) == negative
                return branch_target if taken else None
            return op

        # --- jumps ---------------------------------------------------------------
        if m == "j":
            jump_target = ((pc + 4) & 0xF000_0000) | (instruction.target << 2)
            def op():
                return jump_target
            return op
        if m == "jal":
            jump_target = ((pc + 4) & 0xF000_0000) | (instruction.target << 2)
            link = (pc + 8) & _MEM_MASK
            def op():
                regs[31] = link
                return jump_target
            return op
        if m == "jr":
            def op():
                return regs[rs]
            return op
        if m == "jalr":
            link = (pc + 8) & _MEM_MASK
            def op():
                target = regs[rs]
                if rd:
                    regs[rd] = link
                return target
            return op

        # --- system ---------------------------------------------------------------
        if m == "syscall":
            output = self._output
            memory = self.memory
            def op():
                service = regs[2]
                if service == 10:
                    raise _Halt(regs[4])
                if service == 1:
                    output.append(str(_signed(regs[4])))
                elif service == 4:
                    output.append(memory.read_string(regs[4]))
                elif service == 11:
                    output.append(chr(regs[4] & 0xFF))
                else:
                    raise ExecutionError(f"unsupported syscall {service} at {pc:#x}")
            return op
        if m == "break":
            def op():
                raise ExecutionError(f"break executed at {pc:#x}")
            return op

        # --- floating point ----------------------------------------------------------
        if m in ("lwc1", "swc1"):
            load = m == "lwc1"
            def op():
                stats[0] += 1
                address = (regs[rs] + imm) & _MEM_MASK
                if address & 3:
                    raise ExecutionError(f"unaligned {m} at {address:#x} (pc {pc:#x})")
                if load:
                    fpr[rt] = (
                        (data[address] << 24)
                        | (data[address + 1] << 16)
                        | (data[address + 2] << 8)
                        | data[address + 3]
                    )
                else:
                    value = fpr[rt]
                    data[address] = (value >> 24) & 0xFF
                    data[address + 1] = (value >> 16) & 0xFF
                    data[address + 2] = (value >> 8) & 0xFF
                    data[address + 3] = value & 0xFF
            return op
        if m == "mfc1":
            def op():
                if rt:
                    regs[rt] = fpr[rd]
            return op
        if m == "mtc1":
            def op():
                fpr[rd] = regs[rt]
            return op
        if m in ("bc1t", "bc1f"):
            expect = 1 if m == "bc1t" else 0
            def op():
                return branch_target if fcc[0] == expect else None
            return op

        if m.startswith(("add.", "sub.", "mul.", "div.", "abs.", "neg.", "mov.")):
            return self._compile_fp_arith(instruction)
        if m.startswith("cvt."):
            return self._compile_fp_convert(instruction)
        if m.startswith("c."):
            return self._compile_fp_compare(instruction)

        raise ExecutionError(f"no executor for mnemonic {m!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Floating-point helpers
    # ------------------------------------------------------------------

    def _read_double(self, index: int) -> float:
        return _bits_double((self.fpr[index] << 32) | self.fpr[index + 1])

    def _write_double(self, index: int, value: float) -> None:
        bits = _double_bits(value)
        self.fpr[index] = (bits >> 32) & _WORD_MASK
        self.fpr[index + 1] = bits & _WORD_MASK

    def _compile_fp_arith(self, instruction: Instruction):
        m = instruction.mnemonic
        fpr = self.fpr
        fd, fs, ft = instruction.shamt, instruction.rd, instruction.rt
        double = m.endswith(".d")
        base = m.split(".")[0]
        read_d, write_d = self._read_double, self._write_double

        if base == "mov":
            if double:
                def op():
                    fpr[fd] = fpr[fs]
                    fpr[fd + 1] = fpr[fs + 1]
            else:
                def op():
                    fpr[fd] = fpr[fs]
            return op
        if base in ("abs", "neg"):
            flip = base == "neg"
            def op():
                high = fpr[fs]
                if flip:
                    high ^= 0x8000_0000
                else:
                    high &= 0x7FFF_FFFF
                fpr[fd] = high
                if double:
                    fpr[fd + 1] = fpr[fs + 1]
            return op

        if double:
            def op():
                a, b = read_d(fs), read_d(ft)
                if base == "add":
                    result = a + b
                elif base == "sub":
                    result = a - b
                elif base == "mul":
                    result = a * b
                else:
                    result = a / b if b != 0.0 else float("inf") * (1 if a >= 0 else -1)
                write_d(fd, result)
            return op

        def op():
            a, b = _bits_float(fpr[fs]), _bits_float(fpr[ft])
            if base == "add":
                result = a + b
            elif base == "sub":
                result = a - b
            elif base == "mul":
                result = a * b
            else:
                result = a / b if b != 0.0 else float("inf") * (1 if a >= 0 else -1)
            fpr[fd] = _float_bits(result)
        return op

    def _compile_fp_convert(self, instruction: Instruction):
        m = instruction.mnemonic
        fpr = self.fpr
        fd, fs = instruction.shamt, instruction.rd
        read_d, write_d = self._read_double, self._write_double
        _, to_kind, from_kind = m.split(".")

        def read_source() -> float | int:
            if from_kind == "d":
                return read_d(fs)
            if from_kind == "s":
                return _bits_float(fpr[fs])
            return _signed(fpr[fs])

        def op():
            value = read_source()
            if to_kind == "d":
                write_d(fd, float(value))
            elif to_kind == "s":
                fpr[fd] = _float_bits(float(value))
            else:  # to word: truncate toward zero, C-style
                fpr[fd] = int(value) & _WORD_MASK
        return op

    def _compile_fp_compare(self, instruction: Instruction):
        m = instruction.mnemonic
        fpr = self.fpr
        fcc = self.fcc
        fs, ft = instruction.rd, instruction.rt
        double = m.endswith(".d")
        condition = m.split(".")[1]
        read_d = self._read_double

        def op():
            if double:
                a, b = read_d(fs), read_d(ft)
            else:
                a, b = _bits_float(fpr[fs]), _bits_float(fpr[ft])
            if condition == "eq":
                fcc[0] = 1 if a == b else 0
            elif condition == "lt":
                fcc[0] = 1 if a < b else 0
            else:
                fcc[0] = 1 if a <= b else 0
        return op
