"""An alternative RISC encoding, for the cross-ISA experiment.

Paper Section 5: "One such experiment is to measure the effectiveness of
this method on instruction sets other than MIPS."  The CCRP mechanism is
ISA-agnostic — only the *byte statistics* the preselected Huffman code is
trained on are ISA-specific.  To run the paper's proposed experiment we
therefore need the same programs in a second, structurally different
32-bit encoding.

:func:`reencode_program` deterministically translates a MIPS-I text
segment into an ARM-flavoured layout ("A32-like"): a 4-bit always-true
condition field up front, a 4-bit operation class, destination/source
registers in different bit positions, split 12-bit immediates, and a
link bit instead of a separate call opcode.  The translation keeps
the program's shape (same length, one word per instruction, most operands
in place) while completely rearranging which bits land in which byte —
which is exactly what changes between real ISAs and what the preselected
code is sensitive to.

It is *not* injective, so it is a re-encoding for byte statistics, not a
second executable ISA.  Two causes merge distinct MIPS words:

* 5-bit register fields packed four bits apart share a bit: the Rn slot
  ``[20:16]`` and the Rd slot ``[16:12]`` overlap in bit 16, so
  ``swc1 $f14, 4($sp)`` and ``swc1 $f30, 4($sp)`` both give
  ``0xe59de004``;
* conditional branches drop ``rt``: ``beq $1, $2, 4`` and
  ``beq $1, $3, 4`` both give ``0x0a000041``.

The ten-program Figure 5 corpus has 20,888 distinct MIPS words and
18,541 distinct A32-like words.  ``results/cross-isa.*`` is pinned to
this mapping as it stands.

The ``cross-isa`` experiment then measures: (a) how compressible the
A32-like corpus is with its *own* preselected code, and (b) how badly a
MIPS-trained code does on it — quantifying the paper's claim that "code
from a given architecture often has similar characteristics" (and its
converse: codes do not transfer across architectures).
"""

from __future__ import annotations

import numpy as np

from repro.isa.decoding import decode_distinct
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Category, InstructionFormat

#: The ARM "always" condition, occupying the top nibble like real A32.
_COND_AL = 0xE

#: Operation classes (4 bits at [27:24]).
_CLS_ALU_REG = 0x0
_CLS_ALU_IMM = 0x2
_CLS_LOAD = 0x4
_CLS_STORE = 0x5
_CLS_BRANCH = 0xA
_CLS_BRANCH_LINK = 0xB
_CLS_MUL = 0x6
_CLS_FP = 0xC
_CLS_SYS = 0xF

#: Condition nibbles for conditional branches (A32-style cond field).
_BRANCH_COND = {
    "beq": 0x0,
    "bne": 0x1,
    "blez": 0xD,
    "bgtz": 0xC,
    "bltz": 0xB,
    "bgez": 0xA,
    "bltzal": 0xB,
    "bgezal": 0xA,
    "bc1t": 0x6,
    "bc1f": 0x7,
}

#: ALU sub-opcodes (4 bits at [23:20]), ARM-flavoured ordering.
_ALU_SUBOP = {
    "addu": 0x4, "add": 0x4, "addiu": 0x4, "addi": 0x4,
    "subu": 0x2, "sub": 0x2,
    "and": 0x0, "andi": 0x0,
    "or": 0xC, "ori": 0xC,
    "xor": 0x1, "xori": 0x1,
    "nor": 0xE,
    "slt": 0xA, "slti": 0xA, "sltu": 0xB, "sltiu": 0xB,
    "sll": 0xD, "srl": 0xD, "sra": 0xD, "sllv": 0xD, "srlv": 0xD, "srav": 0xD,
    "lui": 0x8,
}


def reencode_instruction(instruction: Instruction) -> int:
    """One MIPS-I instruction as a 32-bit A32-like word."""
    spec = instruction.spec
    mnemonic = spec.mnemonic
    category = spec.category
    word = _COND_AL << 28

    if category in (Category.LOAD, Category.STORE, Category.FP_LOAD, Category.FP_STORE):
        cls = _CLS_LOAD if category in (Category.LOAD, Category.FP_LOAD) else _CLS_STORE
        offset = instruction.imm_signed
        up = 1 if offset >= 0 else 0
        return (
            word
            | (cls << 24)
            | (up << 23)
            | (instruction.rs << 16)  # base register, ARM's Rn slot
            | (instruction.rt << 12)  # data register, ARM's Rd slot
            | (abs(offset) & 0xFFF)
        )
    if category in (Category.BRANCH, Category.FP_BRANCH):
        # Conditional branches carry their condition in the cond nibble,
        # exactly as A32 does — which also keeps them disjoint from jumps.
        condition = _BRANCH_COND.get(mnemonic, 0x8)
        return (
            (condition << 28)
            | (_CLS_BRANCH << 24)
            | (instruction.imm_unsigned << 4)
            | (instruction.rs & 0xF)
            | ((instruction.rs >> 4) << 20)
        )
    if category in (Category.JUMP, Category.CALL, Category.JUMP_REG):
        cls = _CLS_BRANCH_LINK if category is Category.CALL else _CLS_BRANCH
        if spec.format is InstructionFormat.J:
            return word | (cls << 24) | instruction.target
        return word | (cls << 24) | (1 << 20) | (instruction.rs << 8)
    if category in (Category.MULTDIV, Category.HILO):
        return (
            word
            | (_CLS_MUL << 24)
            | ((spec.funct or 0) << 16)
            | (instruction.rs << 8)
            | instruction.rt
            | (instruction.rd << 12)
        )
    if spec.is_fp:
        return (
            word
            | (_CLS_FP << 24)
            | ((spec.funct or 0) << 16)
            | (instruction.shamt << 12)  # fd in the Rd slot
            | (instruction.rd << 8)  # fs
            | instruction.rt  # ft
        )
    if category is Category.SYSTEM:
        return word | (_CLS_SYS << 24) | (spec.funct or 0)

    # ALU: register or immediate form, two-operand ARM layout.
    subop = _ALU_SUBOP.get(mnemonic, 0x4)
    if spec.format is InstructionFormat.R:
        return (
            word
            | (_CLS_ALU_REG << 24)
            | (subop << 20)
            | (instruction.rs << 16)
            | (instruction.rd << 12)
            | (instruction.shamt << 7)
            | instruction.rt
        )
    # lui has no source register, so its top immediate nibble reuses the
    # (always zero) Rn slot: lui immediates that differ only in that
    # nibble stay distinct.
    high_nibble = ((instruction.imm_unsigned >> 12) & 0xF) << 16 if mnemonic == "lui" else 0
    return (
        word
        | (_CLS_ALU_IMM << 24)
        | (subop << 20)
        | (instruction.rs << 16)
        | (instruction.rt << 12)
        | (instruction.imm_unsigned & 0xFFF)
        | high_nibble
    )


def reencode_program(text: bytes) -> bytes:
    """Translate a MIPS-I text segment into the A32-like encoding.

    Output is the same length (both are fixed 32-bit ISAs) and big-endian,
    matching the rest of the library's conventions.
    """
    instructions, inverse = decode_distinct(text)
    words = np.array([reencode_instruction(i) for i in instructions], dtype=">u4")
    return words[inverse].tobytes()
