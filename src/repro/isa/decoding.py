"""Decode 32-bit words back to :class:`~repro.isa.instruction.Instruction`.

This is the software twin of the CCRP core's instruction decoder: the
functional simulator and the disassembler both run on top of it, and the
round-trip ``decode(encode(i)) == i`` property is enforced by tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecodingError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    COP1_BC,
    COP1_MFC1,
    COP1_MTC1,
    COP1_BY_FMT_FUNCT,
    I_J_BY_OPCODE,
    InstructionFormat,
    R_BY_FUNCT,
    REGIMM_BY_SELECTOR,
    SPECS_BY_MNEMONIC,
)

_SIGN_BIT = 0x8000


def _imm(word: int) -> int:
    value = word & 0xFFFF
    return value - 0x10000 if value & _SIGN_BIT else value


def decode(word: int) -> Instruction:
    """Decode ``word`` into an :class:`Instruction`.

    Raises :class:`~repro.errors.DecodingError` if the word does not encode
    an instruction in the supported MIPS-I subset.
    """
    if not 0 <= word < (1 << 32):
        raise DecodingError(f"not a 32-bit word: {word:#x}")
    opcode = word >> 26
    rs = (word >> 21) & 0x1F
    rt = (word >> 16) & 0x1F
    rd = (word >> 11) & 0x1F
    shamt = (word >> 6) & 0x1F
    funct = word & 0x3F

    if opcode == 0:
        spec = R_BY_FUNCT.get(funct)
        if spec is None:
            raise DecodingError(f"unknown R-type funct {funct:#x} in word {word:#010x}")
        return Instruction(spec, rs=rs, rt=rt, rd=rd, shamt=shamt)

    if opcode == 0x01:
        spec = REGIMM_BY_SELECTOR.get(rt)
        if spec is None:
            raise DecodingError(f"unknown REGIMM selector {rt:#x} in word {word:#010x}")
        return Instruction(spec, rs=rs, imm=_imm(word))

    if opcode == 0x11:
        if rs == COP1_BC:
            mnemonic = "bc1t" if rt & 1 else "bc1f"
            return Instruction(SPECS_BY_MNEMONIC[mnemonic], imm=_imm(word))
        if rs in (COP1_MFC1, COP1_MTC1):
            mnemonic = "mfc1" if rs == COP1_MFC1 else "mtc1"
            return Instruction(SPECS_BY_MNEMONIC[mnemonic], rt=rt, rd=rd)
        spec = COP1_BY_FMT_FUNCT.get((rs, funct))
        if spec is None:
            raise DecodingError(
                f"unknown COP1 fmt/funct ({rs:#x}, {funct:#x}) in word {word:#010x}"
            )
        # The fmt value lives in the spec; normalise rs to 0 so that
        # decode(encode(i)) == i for assembler-built instructions.
        return Instruction(spec, rt=rt, rd=rd, shamt=shamt)

    spec = I_J_BY_OPCODE.get(opcode)
    if spec is None:
        raise DecodingError(f"unknown opcode {opcode:#x} in word {word:#010x}")
    if spec.format is InstructionFormat.J:
        return Instruction(spec, target=word & 0x03FF_FFFF)
    return Instruction(spec, rs=rs, rt=rt, imm=_imm(word))


def _check_length(code: bytes) -> None:
    if len(code) % 4:
        raise DecodingError(f"code length {len(code)} is not a multiple of 4")


def decode_program(code: bytes) -> list[Instruction]:
    """Decode a contiguous big-endian byte string into instructions."""
    _check_length(code)
    return [
        decode(int.from_bytes(code[offset : offset + 4], "big"))
        for offset in range(0, len(code), 4)
    ]


def decode_distinct(code: bytes) -> tuple[list[Instruction], np.ndarray]:
    """Decode each distinct word of ``code`` once.

    Returns ``(instructions, inverse)``: the distinct words decoded in
    order of first occurrence, and for every word of ``code`` the index of
    its instruction, so ``[instructions[i] for i in inverse]`` equals
    :func:`decode_program`'s list.  A per-word function applied to the
    distinct instructions scatters back through ``inverse`` with numpy.

    Decoding in first-occurrence order makes the error for a bad segment
    the one :func:`decode_program` raises: it names the first invalid
    word in text order, not the smallest.
    """
    _check_length(code)
    words = np.frombuffer(code, dtype=">u4")
    distinct, first, inverse = np.unique(words, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    instructions = [decode(word) for word in distinct[order].tolist()]
    return instructions, rank[inverse]
