"""Dense-ISA re-encoding analysis (the paper's road not taken).

Section 1: "A possible alternative approach to the problems of code
density in embedded systems would be to design a new RISC or CISC
architecture with a denser instruction set encoding."  The paper rejects
this because it breaks the programmer's model and the toolchain; history
took it anyway (ARM Thumb, MIPS16 — the very designs that supplanted the
CCRP approach).

This module quantifies that alternative for our programs: a Thumb-style
re-encoder that classifies each MIPS-I instruction as expressible in a
16-bit format or not, under the classic constraints (two-address ALU
forms, a low-register file, small immediates and offsets, short
branches).  The resulting size ratio is directly comparable to the CCRP's
Huffman ratio — without any cache-refill machinery, but with a new ISA.

The analysis is static (no execution needed) and conservative: branch
distances are taken from the *original* layout even though re-encoding
would shrink them, so the reported ratio slightly understates the dense
ISA.  The point is the comparison's shape, which is robust to that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.decoding import decode_distinct
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Category

#: The dense encoding's "low" register file: $zero plus the hottest seven
#: allocatable registers of the o32 convention (v0, v1, a0, a1, t0-t2).
LOW_REGISTERS = frozenset({0, 2, 3, 4, 5, 8, 9, 10})

#: Two-address ALU operations expressible in 16 bits.
_ALU_2ADDR = frozenset({"addu", "subu", "and", "or", "xor", "nor", "slt", "sltu"})

_SHIFTS = frozenset({"sll", "srl", "sra"})


def _low(*registers: int) -> bool:
    return all(register in LOW_REGISTERS for register in registers)


def is_dense_encodable(instruction: Instruction) -> bool:
    """True if ``instruction`` fits a Thumb-style 16-bit format."""
    mnemonic = instruction.mnemonic
    spec = instruction.spec

    if mnemonic in _ALU_2ADDR:
        # Two-address form: destination doubles as the first source.
        return instruction.rd == instruction.rs and _low(instruction.rd, instruction.rt)
    if mnemonic in _SHIFTS:
        return _low(instruction.rd, instruction.rt)
    if mnemonic == "addiu":
        if instruction.rs == 29 and instruction.rt == 29:  # stack adjust
            return -512 <= instruction.imm_signed <= 508 and instruction.imm_signed % 4 == 0
        if instruction.rs == 0:  # load immediate
            return _low(instruction.rt) and 0 <= instruction.imm_signed <= 255
        return (
            instruction.rt == instruction.rs
            and _low(instruction.rt)
            and -128 <= instruction.imm_signed <= 127
        )
    if mnemonic in ("andi", "ori", "xori"):
        return (
            instruction.rt == instruction.rs
            and _low(instruction.rt)
            and instruction.imm_unsigned <= 255
        )
    if mnemonic in ("slti", "sltiu"):
        return (
            instruction.rt == instruction.rs
            and _low(instruction.rt)
            and 0 <= instruction.imm_signed <= 255
        )
    if mnemonic in ("lw", "sw"):
        offset = instruction.imm_signed
        if instruction.rs == 29:  # sp-relative: 8-bit scaled offset
            return _low(instruction.rt) and 0 <= offset <= 1020 and offset % 4 == 0
        return (
            _low(instruction.rt, instruction.rs)
            and 0 <= offset <= 124
            and offset % 4 == 0
        )
    if mnemonic in ("lb", "lbu", "sb"):
        return _low(instruction.rt, instruction.rs) and 0 <= instruction.imm_signed <= 31
    if mnemonic in ("lh", "lhu", "sh"):
        offset = instruction.imm_signed
        return (
            _low(instruction.rt, instruction.rs)
            and 0 <= offset <= 62
            and offset % 2 == 0
        )
    if spec.category is Category.BRANCH:
        # Conditional short branch: compare-against-zero forms only.
        offset_bytes = instruction.imm_signed * 4
        if mnemonic == "beq" and instruction.rs == 0 and instruction.rt == 0:
            return -2048 <= offset_bytes <= 2046  # unconditional short jump
        if mnemonic in ("beq", "bne") and instruction.rt == 0:
            return _low(instruction.rs) and -256 <= offset_bytes <= 254
        if mnemonic in ("blez", "bgtz", "bltz", "bgez"):
            return _low(instruction.rs) and -256 <= offset_bytes <= 254
        return False
    if mnemonic == "jr":
        return True
    if mnemonic == "mfhi" or mnemonic == "mflo":
        return _low(instruction.rd)
    # Everything else — jal/jalr (BL is 32-bit), lui, COP1, mult/div,
    # wide-register or wide-immediate forms — stays 32-bit.
    return False


@dataclass(frozen=True)
class DenseEncodingReport:
    """Static dense-encoding analysis of one program.

    Attributes:
        instructions: Static instruction count.
        dense_count: Instructions expressible in 16 bits.
        original_bytes: 4 x instructions.
        dense_bytes: 2 x dense + 4 x (rest).
    """

    instructions: int
    dense_count: int

    @property
    def original_bytes(self) -> int:
        return 4 * self.instructions

    @property
    def dense_bytes(self) -> int:
        return 2 * self.dense_count + 4 * (self.instructions - self.dense_count)

    @property
    def dense_fraction(self) -> float:
        return self.dense_count / self.instructions if self.instructions else 0.0

    @property
    def size_ratio(self) -> float:
        """Dense-ISA size over original (1.0 = no benefit)."""
        return self.dense_bytes / self.original_bytes if self.instructions else 1.0


def analyze_dense_encoding(text: bytes) -> DenseEncodingReport:
    """Classify every instruction of a text segment."""
    instructions, inverse = decode_distinct(text)
    encodable = np.array([is_dense_encodable(i) for i in instructions], dtype=bool)
    dense = int(np.count_nonzero(encodable[inverse]))
    return DenseEncodingReport(instructions=len(inverse), dense_count=dense)
