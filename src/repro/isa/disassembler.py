"""Disassembler: render instructions back to assembly text.

Primarily a debugging and testing aid; the round trip
``assemble(disassemble(code))`` reproduces the original bytes for any code
the library emits (branch/jump operands are rendered numerically).
"""

from __future__ import annotations

from repro.isa.decoding import decode
from repro.isa.instruction import NOP, Instruction
from repro.isa.registers import register_name


def disassemble_word(word: int, address: int | None = None) -> str:
    """Disassemble one 32-bit word; ``address`` resolves branch targets."""
    return disassemble(decode(word), address)


def disassemble(instruction: Instruction, address: int | None = None) -> str:
    """Render ``instruction`` as assembly text.

    If ``address`` (the instruction's own address) is given, PC-relative
    branch targets are shown as absolute addresses; otherwise the raw
    word offset is shown.
    """
    spec = instruction.spec
    signature = spec.operands
    gpr = register_name
    fpr = lambda n: register_name(n, fp=True)  # noqa: E731

    if instruction == NOP:  # only the all-zero word; other shifts keep their operands
        return "nop"

    if signature == "":
        return spec.mnemonic
    if signature == "rd,rs,rt":
        operands = f"{gpr(instruction.rd)}, {gpr(instruction.rs)}, {gpr(instruction.rt)}"
    elif signature == "rd,rt,sha":
        operands = f"{gpr(instruction.rd)}, {gpr(instruction.rt)}, {instruction.shamt}"
    elif signature == "rd,rt,rs":
        operands = f"{gpr(instruction.rd)}, {gpr(instruction.rt)}, {gpr(instruction.rs)}"
    elif signature == "rs":
        operands = gpr(instruction.rs)
    elif signature == "rd,rs":
        operands = f"{gpr(instruction.rd)}, {gpr(instruction.rs)}"
    elif signature == "rd":
        operands = gpr(instruction.rd)
    elif signature == "rs,rt":
        operands = f"{gpr(instruction.rs)}, {gpr(instruction.rt)}"
    elif signature in ("rt,rs,imm", "rt,rs,uimm"):
        imm = instruction.imm_unsigned if signature.endswith("uimm") else instruction.imm_signed
        operands = f"{gpr(instruction.rt)}, {gpr(instruction.rs)}, {imm}"
    elif signature == "rt,uimm":
        operands = f"{gpr(instruction.rt)}, {instruction.imm_unsigned:#x}"
    elif signature == "rt,off(rs)":
        operands = f"{gpr(instruction.rt)}, {instruction.imm_signed}({gpr(instruction.rs)})"
    elif signature == "ft,off(rs)":
        operands = f"{fpr(instruction.rt)}, {instruction.imm_signed}({gpr(instruction.rs)})"
    elif signature == "rs,rt,rel":
        operands = (
            f"{gpr(instruction.rs)}, {gpr(instruction.rt)}, "
            f"{_branch_target(instruction, address)}"
        )
    elif signature == "rs,rel":
        operands = f"{gpr(instruction.rs)}, {_branch_target(instruction, address)}"
    elif signature == "rel":
        operands = _branch_target(instruction, address)
    elif signature == "target":
        operands = f"{instruction.target << 2:#x}"
    elif signature == "fd,fs,ft":
        operands = f"{fpr(instruction.shamt)}, {fpr(instruction.rd)}, {fpr(instruction.rt)}"
    elif signature == "fd,fs":
        operands = f"{fpr(instruction.shamt)}, {fpr(instruction.rd)}"
    elif signature == "fs,ft":
        operands = f"{fpr(instruction.rd)}, {fpr(instruction.rt)}"
    elif signature == "rt,fs":
        operands = f"{gpr(instruction.rt)}, {fpr(instruction.rd)}"
    else:  # pragma: no cover - exhaustive over SPECS signatures
        raise ValueError(f"unhandled signature {signature!r}")
    return f"{spec.mnemonic} {operands}"


def _branch_target(instruction: Instruction, address: int | None) -> str:
    if address is None:
        return str(instruction.imm_signed)
    return f"{address + 4 + (instruction.imm_signed << 2):#x}"


def disassemble_program(code: bytes, base: int = 0) -> list[str]:
    """Disassemble a contiguous text segment into one line per word."""
    lines = []
    for offset in range(0, len(code), 4):
        word = int.from_bytes(code[offset : offset + 4], "big")
        lines.append(f"{base + offset:06x}:  {disassemble_word(word, base + offset)}")
    return lines
