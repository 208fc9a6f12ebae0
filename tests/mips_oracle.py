"""An independent reference interpreter for the executor's MIPS-I subset.

Fetch a word from the text, ``decode`` it, look its mnemonic up in a
small semantics table, and run it: one instruction at a time, with delay
slots modelled by the usual ``pc``/``npc`` pair.  It shares no code with
:mod:`repro.machine.executor` and is written to be obviously correct,
not fast.  It follows the executor's documented conventions: wrapping
arithmetic, a hard-wired ``$zero``, links past the delay slot, 24-bit
addresses, SPIM syscalls, binary32 rounding through ``struct``, and a
text that is decoded from the loaded image, never from data memory.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.errors import ExecutionError
from repro.isa.decoding import decode
from repro.machine.stalls import R2000_STALLS

MASK = 0xFFFFFFFF
ADDRESS_MASK = 0xFFFFFF
STACK_TOP = 0xFFFFF0


def signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


def to_single(bits: int) -> float:
    return struct.unpack(">f", struct.pack(">I", bits))[0]


def from_single(value: float) -> int:
    return struct.unpack(">I", struct.pack(">f", value))[0]


class Halt(Exception):
    """The exit syscall."""


class Oracle:
    """Architectural state plus the fetch-decode-execute loop."""

    def __init__(self, program) -> None:
        self.program = program
        self.words = struct.unpack(f">{len(program.text) // 4}I", program.text)
        self.mem = bytearray(1 << 24)
        self.mem[program.text_base : program.text_base + len(program.text)] = program.text
        self.mem[program.data_base : program.data_base + len(program.data)] = program.data
        self.r = [0] * 32
        self.r[29] = STACK_TOP
        self.r[28] = (program.data_base + 0x8000) & ADDRESS_MASK
        self.f = [0] * 32
        self.hi = self.lo = self.cc = 0
        self.output: list[str] = []
        self.data_accesses = 0
        self.exit_code = 0
        self.trace: list[int] = []
        self.pc = program.entry
        self.npc = self.pc + 4
        self._decoded: dict[int, object] = {}

    # --- state helpers ----------------------------------------------------

    def rs(self, i) -> int:
        return self.r[i.rs]

    def rt(self, i) -> int:
        return self.r[i.rt]

    def set(self, register: int, value: int) -> None:
        if register:
            self.r[register] = value & MASK

    def address(self, i, alignment: int = 1) -> int:
        self.data_accesses += 1
        address = (self.r[i.rs] + i.imm_signed) & ADDRESS_MASK
        if address % alignment:
            raise ExecutionError(
                f"unaligned {i.mnemonic} at {address:#x} (pc {self.pc:#x})"
            )
        return address

    def load(self, address: int, size: int) -> int:
        return int.from_bytes(self.mem[address : address + size], "big")

    def store(self, address: int, size: int, value: int) -> None:
        self.mem[address : address + size] = (value % (1 << (8 * size))).to_bytes(size, "big")

    def double(self, register: int) -> float:
        return struct.unpack(">d", struct.pack(">II", self.f[register], self.f[register + 1]))[0]

    def set_double(self, register: int, value: float) -> None:
        self.f[register], self.f[register + 1] = struct.unpack(">II", struct.pack(">d", value))

    def read_string(self, address: int) -> str:
        address &= ADDRESS_MASK
        end = self.mem.find(b"\0", address, address + 4096)
        if end < 0:
            raise ExecutionError(f"unterminated string at {address:#x}")
        return self.mem[address:end].decode("latin-1")

    # --- the loop ---------------------------------------------------------

    def step(self) -> None:
        base = self.program.text_base
        pc = self.pc
        if pc % 4:
            raise ExecutionError(f"PC {pc:#x} misaligned")
        if not base <= pc < base + 4 * len(self.words):
            raise ExecutionError(f"PC {pc:#x} outside text segment")
        word = self.words[(pc - base) // 4]
        instruction = self._decoded.get(word)
        if instruction is None:
            instruction = self._decoded[word] = decode(word)
        self.trace.append(pc)
        target = SEMANTICS[instruction.mnemonic](self, instruction)
        self.pc = self.npc
        self.npc = self.pc + 4 if target is None else target

    def run(self, max_instructions: int, stop_at_limit: bool = False) -> "Oracle":
        try:
            while len(self.trace) < max_instructions:
                self.step()
            if not stop_at_limit:
                raise ExecutionError(
                    f"instruction limit {max_instructions} reached without exit"
                )
        except Halt:
            self.exit_code = self.r[4]
        return self

    # --- what an ExecutionResult reports ------------------------------------

    @property
    def addresses(self) -> np.ndarray:
        return np.array(self.trace, dtype=np.uint32)

    @property
    def instruction_indices(self) -> np.ndarray:
        return (self.addresses.astype(np.int64) - self.program.text_base) >> 2

    def execution_counts(self) -> np.ndarray:
        return np.bincount(
            self.instruction_indices, minlength=len(self.program.text) // 4
        )

    @property
    def stall_cycles(self) -> int:
        return R2000_STALLS.stall_cycles(
            self.instruction_indices, self.program.instructions
        )


# --- semantics: fn(cpu, instruction) -> next pc when control transfers -----


def _gpr(dest: str, value):
    def run(cpu, i):
        cpu.set(getattr(i, dest), value(cpu, i))

    return run


def _branch(condition, link: bool = False):
    def run(cpu, i):
        if link:
            cpu.r[31] = (cpu.pc + 8) & ADDRESS_MASK
        if condition(cpu, i):
            return (cpu.pc + 4 + 4 * i.imm_signed) & ADDRESS_MASK
        return None

    return run


def _jump(cpu, i, link: bool):
    if link:
        cpu.r[31] = (cpu.pc + 8) & ADDRESS_MASK
    return ((cpu.pc + 4) & 0xF0000000) | (i.target << 2)


def _jalr(cpu, i):
    target = cpu.r[i.rs]
    cpu.set(i.rd, (cpu.pc + 8) & ADDRESS_MASK)
    return target


def _mult(cpu, i, product):
    cpu.hi, cpu.lo = (product >> 32) & MASK, product & MASK


def _div(cpu, i):
    dividend, divisor = signed(cpu.r[i.rs]), signed(cpu.r[i.rt])
    if divisor == 0:
        cpu.hi = cpu.lo = 0
        return
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    cpu.lo, cpu.hi = quotient & MASK, (dividend - quotient * divisor) & MASK


def _divu(cpu, i):
    dividend, divisor = cpu.r[i.rs], cpu.r[i.rt]
    if divisor == 0:
        cpu.hi = cpu.lo = 0
    else:
        cpu.lo, cpu.hi = dividend // divisor, dividend % divisor


def _load(size: int, sign: bool, alignment: int):
    def run(cpu, i):
        value = cpu.load(cpu.address(i, alignment), size)
        if sign and value >> (8 * size - 1):
            value -= 1 << (8 * size)
        cpu.set(i.rt, value)

    return run


def _store(size: int, alignment: int):
    def run(cpu, i):
        cpu.store(cpu.address(i, alignment), size, cpu.r[i.rt])

    return run


# Unaligned pairs, byte by byte (big-endian): ``lwl``/``swl`` move the
# bytes from the address to the end of its word into/out of the
# register's high end, ``lwr``/``swr`` those from the word's start up to
# the address into/out of its low end.


def _lwl(cpu, i):
    address = cpu.address(i)
    data = bytearray(cpu.r[i.rt].to_bytes(4, "big"))
    for k in range(4 - address % 4):
        data[k] = cpu.mem[address + k]
    cpu.set(i.rt, int.from_bytes(data, "big"))


def _lwr(cpu, i):
    address = cpu.address(i)
    offset = address % 4
    data = bytearray(cpu.r[i.rt].to_bytes(4, "big"))
    for k in range(offset + 1):
        data[3 - offset + k] = cpu.mem[address - offset + k]
    cpu.set(i.rt, int.from_bytes(data, "big"))


def _swl(cpu, i):
    address = cpu.address(i)
    data = cpu.r[i.rt].to_bytes(4, "big")
    for k in range(4 - address % 4):
        cpu.mem[address + k] = data[k]


def _swr(cpu, i):
    address = cpu.address(i)
    offset = address % 4
    data = cpu.r[i.rt].to_bytes(4, "big")
    for k in range(offset + 1):
        cpu.mem[address - offset + k] = data[3 - offset + k]


def _syscall(cpu, i):
    service, argument = cpu.r[2], cpu.r[4]
    if service == 10:
        raise Halt
    if service == 1:
        cpu.output.append(str(signed(argument)))
    elif service == 4:
        cpu.output.append(cpu.read_string(argument))
    elif service == 11:
        cpu.output.append(chr(argument & 0xFF))
    else:
        raise ExecutionError(f"unsupported syscall {service} at {cpu.pc:#x}")


def _break(cpu, i):
    raise ExecutionError(f"break executed at {cpu.pc:#x}")


def _fdiv(x: float, y: float) -> float:
    if y == 0.0:
        return math.inf if x >= 0 else -math.inf
    return x / y


_FP_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": _fdiv,
}


def _fp_read(cpu, register: int, fmt: str):
    if fmt == "d":
        return cpu.double(register)
    if fmt == "s":
        return to_single(cpu.f[register])
    return signed(cpu.f[register])  # "w"


def _fp_write(cpu, register: int, fmt: str, value) -> None:
    if fmt == "d":
        cpu.set_double(register, float(value))
    elif fmt == "s":
        cpu.f[register] = from_single(float(value))
    else:
        cpu.f[register] = int(value) & MASK  # truncates toward zero


def _fp_arith(op: str, fmt: str):
    def run(cpu, i):  # fd = shamt, fs = rd, ft = rt
        value = _FP_OPS[op](_fp_read(cpu, i.rd, fmt), _fp_read(cpu, i.rt, fmt))
        _fp_write(cpu, i.shamt, fmt, value)

    return run


def _fp_sign(op: str, fmt: str):
    def run(cpu, i):
        high = cpu.f[i.rd]
        cpu.f[i.shamt] = high ^ 0x80000000 if op == "neg" else high & 0x7FFFFFFF
        if fmt == "d":
            cpu.f[i.shamt + 1] = cpu.f[i.rd + 1]

    return run


def _fp_move(fmt: str):
    def run(cpu, i):
        for k in range(2 if fmt == "d" else 1):
            cpu.f[i.shamt + k] = cpu.f[i.rd + k]

    return run


def _fp_convert(to: str, source: str):
    def run(cpu, i):
        _fp_write(cpu, i.shamt, to, _fp_read(cpu, i.rd, source))

    return run


def _fp_compare(condition: str, fmt: str):
    compare = {"eq": lambda x, y: x == y, "lt": lambda x, y: x < y, "le": lambda x, y: x <= y}
    def run(cpu, i):
        cpu.cc = int(compare[condition](_fp_read(cpu, i.rd, fmt), _fp_read(cpu, i.rt, fmt)))

    return run


def _lwc1(cpu, i):
    cpu.f[i.rt] = cpu.load(cpu.address(i, 4), 4)


def _swc1(cpu, i):
    cpu.store(cpu.address(i, 4), 4, cpu.f[i.rt])


def _mtc1(cpu, i):
    cpu.f[i.rd] = cpu.r[i.rt]


SEMANTICS = {
    "add": _gpr("rd", lambda c, i: c.rs(i) + c.rt(i)),
    "addu": _gpr("rd", lambda c, i: c.rs(i) + c.rt(i)),
    "sub": _gpr("rd", lambda c, i: c.rs(i) - c.rt(i)),
    "subu": _gpr("rd", lambda c, i: c.rs(i) - c.rt(i)),
    "and": _gpr("rd", lambda c, i: c.rs(i) & c.rt(i)),
    "or": _gpr("rd", lambda c, i: c.rs(i) | c.rt(i)),
    "xor": _gpr("rd", lambda c, i: c.rs(i) ^ c.rt(i)),
    "nor": _gpr("rd", lambda c, i: ~(c.rs(i) | c.rt(i))),
    "slt": _gpr("rd", lambda c, i: int(signed(c.rs(i)) < signed(c.rt(i)))),
    "sltu": _gpr("rd", lambda c, i: int(c.rs(i) < c.rt(i))),
    "sll": _gpr("rd", lambda c, i: c.rt(i) << i.shamt),
    "srl": _gpr("rd", lambda c, i: c.rt(i) >> i.shamt),
    "sra": _gpr("rd", lambda c, i: signed(c.rt(i)) >> i.shamt),
    "sllv": _gpr("rd", lambda c, i: c.rt(i) << (c.rs(i) % 32)),
    "srlv": _gpr("rd", lambda c, i: c.rt(i) >> (c.rs(i) % 32)),
    "srav": _gpr("rd", lambda c, i: signed(c.rt(i)) >> (c.rs(i) % 32)),
    "jr": lambda c, i: c.rs(i),
    "jalr": _jalr,
    "mfhi": _gpr("rd", lambda c, i: c.hi),
    "mflo": _gpr("rd", lambda c, i: c.lo),
    "mthi": lambda c, i: setattr(c, "hi", c.rs(i)),
    "mtlo": lambda c, i: setattr(c, "lo", c.rs(i)),
    "mult": lambda c, i: _mult(c, i, signed(c.rs(i)) * signed(c.rt(i))),
    "multu": lambda c, i: _mult(c, i, c.rs(i) * c.rt(i)),
    "div": _div,
    "divu": _divu,
    "syscall": _syscall,
    "break": _break,
    "addi": _gpr("rt", lambda c, i: c.rs(i) + i.imm_signed),
    "addiu": _gpr("rt", lambda c, i: c.rs(i) + i.imm_signed),
    "slti": _gpr("rt", lambda c, i: int(signed(c.rs(i)) < i.imm_signed)),
    "sltiu": _gpr("rt", lambda c, i: int(c.rs(i) < i.imm_signed % (1 << 32))),
    "andi": _gpr("rt", lambda c, i: c.rs(i) & i.imm_unsigned),
    "ori": _gpr("rt", lambda c, i: c.rs(i) | i.imm_unsigned),
    "xori": _gpr("rt", lambda c, i: c.rs(i) ^ i.imm_unsigned),
    "lui": _gpr("rt", lambda c, i: i.imm_unsigned << 16),
    "lb": _load(1, True, 1),
    "lh": _load(2, True, 2),
    "lwl": _lwl,
    "lw": _load(4, False, 4),
    "lbu": _load(1, False, 1),
    "lhu": _load(2, False, 2),
    "lwr": _lwr,
    "sb": _store(1, 1),
    "sh": _store(2, 2),
    "swl": _swl,
    "sw": _store(4, 4),
    "swr": _swr,
    "beq": _branch(lambda c, i: c.rs(i) == c.rt(i)),
    "bne": _branch(lambda c, i: c.rs(i) != c.rt(i)),
    "blez": _branch(lambda c, i: signed(c.rs(i)) <= 0),
    "bgtz": _branch(lambda c, i: signed(c.rs(i)) > 0),
    "bltz": _branch(lambda c, i: signed(c.rs(i)) < 0),
    "bgez": _branch(lambda c, i: signed(c.rs(i)) >= 0),
    # The and-link branches link first, so ``$ra`` as rs reads the link.
    "bltzal": _branch(lambda c, i: signed(c.rs(i)) < 0, link=True),
    "bgezal": _branch(lambda c, i: signed(c.rs(i)) >= 0, link=True),
    "j": lambda c, i: _jump(c, i, link=False),
    "jal": lambda c, i: _jump(c, i, link=True),
    "lwc1": _lwc1,
    "swc1": _swc1,
    "mfc1": _gpr("rt", lambda c, i: c.f[i.rd]),
    "mtc1": _mtc1,
    "bc1f": _branch(lambda c, i: c.cc == 0),
    "bc1t": _branch(lambda c, i: c.cc == 1),
}
for _fmt in ("s", "d"):
    for _op in _FP_OPS:
        SEMANTICS[f"{_op}.{_fmt}"] = _fp_arith(_op, _fmt)
    SEMANTICS[f"abs.{_fmt}"] = _fp_sign("abs", _fmt)
    SEMANTICS[f"neg.{_fmt}"] = _fp_sign("neg", _fmt)
    SEMANTICS[f"mov.{_fmt}"] = _fp_move(_fmt)
    for _condition in ("eq", "lt", "le"):
        SEMANTICS[f"c.{_condition}.{_fmt}"] = _fp_compare(_condition, _fmt)
for _to, _source in (("s", "d"), ("s", "w"), ("d", "s"), ("d", "w"), ("w", "s"), ("w", "d")):
    SEMANTICS[f"cvt.{_to}.{_source}"] = _fp_convert(_to, _source)
