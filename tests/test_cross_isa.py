"""Tests for the A32-like re-encoder and the cross-ISA experiment."""

from __future__ import annotations

import pytest

from repro.isa import Instruction
from repro.isa.altisa import reencode_instruction, reencode_program
from repro.isa.encoding import encode_program
from repro.workloads import load


class TestReencoder:
    def test_output_same_length(self):
        text = load("eightq").text
        assert len(reencode_program(text)) == len(text)

    def test_condition_nibble_always_present(self):
        text = reencode_program(load("eightq").text)
        # Every word starts with a legal A32 condition nibble: AL for
        # everything except conditional branches, which carry their own.
        legal = {0xE, 0x0, 0x1, 0xA, 0xB, 0xC, 0xD, 0x6, 0x7, 0x8}
        assert all(text[offset] >> 4 in legal for offset in range(0, len(text), 4))
        assert sum(text[offset] >> 4 == 0xE for offset in range(0, len(text), 4)) > 0

    def test_distinct_instructions_stay_distinct(self):
        samples = [
            Instruction.make("addu", rd=2, rs=3, rt=4),
            Instruction.make("addu", rd=2, rs=4, rt=3),
            Instruction.make("subu", rd=2, rs=3, rt=4),
            Instruction.make("addiu", rt=2, rs=3, imm=5),
            Instruction.make("addiu", rt=2, rs=3, imm=6),
            Instruction.make("lw", rt=2, rs=3, imm=8),
            Instruction.make("sw", rt=2, rs=3, imm=8),
            Instruction.make("lw", rt=2, rs=3, imm=-8),
            Instruction.make("beq", rs=1, rt=0, imm=4),
            Instruction.make("jal", target=64),
            Instruction.make("j", target=64),
            Instruction.make("jr", rs=31),
            Instruction.make("mult", rs=2, rt=3),
            Instruction.make("mflo", rd=2),
            Instruction.make("add.d", shamt=2, rd=4, rt=6),
            Instruction.make("lui", rt=2, imm=0x1234),
            Instruction.make("syscall"),
        ]
        words = [reencode_instruction(instruction) for instruction in samples]
        assert len(set(words)) == len(words)

    def test_translation_is_not_injective(self):
        """Pinned so the module docstring's two causes and corpus count stay true."""
        import numpy as np

        from repro.workloads import load_figure5_corpus

        # Register fields overlap in bit 16: $f14 and $f30 differ only there.
        assert reencode_instruction(
            Instruction.make("swc1", rt=14, rs=29, imm=4)
        ) == reencode_instruction(Instruction.make("swc1", rt=30, rs=29, imm=4)) == 0xE59DE004
        # Conditional branches drop rt.
        assert reencode_instruction(
            Instruction.make("beq", rs=1, rt=2, imm=4)
        ) == reencode_instruction(Instruction.make("beq", rs=1, rt=3, imm=4)) == 0x0A000041

        mips = b"".join(load_figure5_corpus().values())
        alt = reencode_program(mips)
        assert len(np.unique(np.frombuffer(mips, dtype=">u4"))) == 20_888
        assert len(np.unique(np.frombuffer(alt, dtype=">u4"))) == 18_541

    def test_lui_high_nibble_preserved(self):
        low = reencode_instruction(Instruction.make("lui", rt=2, imm=0x0234))
        high = reencode_instruction(Instruction.make("lui", rt=2, imm=0xF234))
        assert low != high

    def test_byte_statistics_differ_from_mips(self):
        from repro.compression.histogram import byte_histogram

        text = load("espresso").text
        mips = byte_histogram(text)
        alt = byte_histogram(reencode_program(text))
        # The encodings must be statistically different for the experiment
        # to mean anything: compare top-byte distributions.
        difference = sum(abs(a - b) for a, b in zip(mips, alt))
        assert difference > len(text) // 4

    def test_deterministic(self):
        text = load("eightq").text
        assert reencode_program(text) == reencode_program(text)


class TestCrossISAExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.cross_isa import run_cross_isa

        return run_cross_isa(programs=("eightq", "yacc", "espresso"))

    def test_both_isas_compress_with_own_codes(self, result):
        """The CCRP approach generalises across instruction sets."""
        assert result.weighted.mips_own_code < 0.85
        assert result.weighted.alt_own_code < 0.85

    def test_own_codes_within_a_few_points(self, result):
        assert abs(result.weighted.mips_own_code - result.weighted.alt_own_code) < 0.06

    def test_cross_trained_codes_lose(self, result):
        """A hard-wired decoder must match its architecture."""
        assert result.weighted.mips_with_alt_code > result.weighted.mips_own_code + 0.05
        assert result.weighted.alt_with_mips_code > result.weighted.alt_own_code + 0.05

    def test_render(self, result):
        assert "Cross-ISA" in result.render()
