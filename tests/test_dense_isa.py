"""Tests for the dense-ISA (Thumb-style) re-encoding analysis."""

from __future__ import annotations

import pytest

from repro.isa import Instruction
from repro.isa.dense import (
    DenseEncodingReport,
    analyze_dense_encoding,
    is_dense_encodable,
)
from repro.isa.encoding import encode_program


class TestClassifier:
    def test_two_address_alu_low_regs(self):
        assert is_dense_encodable(Instruction.make("addu", rd=2, rs=2, rt=3))

    def test_three_address_alu_rejected(self):
        assert not is_dense_encodable(Instruction.make("addu", rd=2, rs=3, rt=4))

    def test_high_register_rejected(self):
        assert not is_dense_encodable(Instruction.make("addu", rd=16, rs=16, rt=3))

    def test_shift_immediate(self):
        assert is_dense_encodable(Instruction.make("sll", rd=2, rt=3, shamt=4))
        assert not is_dense_encodable(Instruction.make("sll", rd=16, rt=3, shamt=4))

    def test_small_immediate_add(self):
        assert is_dense_encodable(Instruction.make("addiu", rt=2, rs=2, imm=7))
        assert not is_dense_encodable(Instruction.make("addiu", rt=2, rs=2, imm=300))
        assert not is_dense_encodable(Instruction.make("addiu", rt=2, rs=3, imm=7))

    def test_load_immediate(self):
        assert is_dense_encodable(Instruction.make("addiu", rt=2, rs=0, imm=200))
        assert not is_dense_encodable(Instruction.make("addiu", rt=2, rs=0, imm=-5))

    def test_stack_adjust(self):
        assert is_dense_encodable(Instruction.make("addiu", rt=29, rs=29, imm=-32))
        assert not is_dense_encodable(Instruction.make("addiu", rt=29, rs=29, imm=-516))

    def test_word_load_store(self):
        assert is_dense_encodable(Instruction.make("lw", rt=2, rs=3, imm=64))
        assert not is_dense_encodable(Instruction.make("lw", rt=2, rs=3, imm=66))  # unaligned
        assert not is_dense_encodable(Instruction.make("lw", rt=2, rs=3, imm=128))  # too far
        assert is_dense_encodable(Instruction.make("lw", rt=2, rs=29, imm=512))  # sp-relative
        assert not is_dense_encodable(Instruction.make("sw", rt=16, rs=3, imm=0))

    def test_byte_and_half_loads(self):
        assert is_dense_encodable(Instruction.make("lbu", rt=2, rs=3, imm=31))
        assert not is_dense_encodable(Instruction.make("lbu", rt=2, rs=3, imm=32))
        assert is_dense_encodable(Instruction.make("lhu", rt=2, rs=3, imm=62))
        assert not is_dense_encodable(Instruction.make("lhu", rt=2, rs=3, imm=63))

    def test_short_branches(self):
        assert is_dense_encodable(Instruction.make("bne", rs=2, rt=0, imm=30))
        assert not is_dense_encodable(Instruction.make("bne", rs=2, rt=0, imm=100))
        assert not is_dense_encodable(Instruction.make("bne", rs=2, rt=3, imm=10))
        assert is_dense_encodable(Instruction.make("bltz", rs=2, imm=-20))

    def test_unconditional_short_jump(self):
        assert is_dense_encodable(Instruction.make("beq", rs=0, rt=0, imm=400))

    def test_always_32_bit_forms(self):
        assert not is_dense_encodable(Instruction.make("jal", target=64))
        assert not is_dense_encodable(Instruction.make("lui", rt=2, imm=0x40))
        assert not is_dense_encodable(Instruction.make("mult", rs=2, rt=3))
        assert not is_dense_encodable(Instruction.make("add.d", shamt=2, rd=4, rt=6))

    def test_jr_is_dense(self):
        assert is_dense_encodable(Instruction.make("jr", rs=31))

    def test_hilo_moves(self):
        assert is_dense_encodable(Instruction.make("mflo", rd=2))
        assert not is_dense_encodable(Instruction.make("mflo", rd=16))


class TestReport:
    def test_ratio_arithmetic(self):
        report = DenseEncodingReport(instructions=100, dense_count=50)
        assert report.original_bytes == 400
        assert report.dense_bytes == 300
        assert report.size_ratio == pytest.approx(0.75)
        assert report.dense_fraction == pytest.approx(0.5)

    def test_empty_program(self):
        report = DenseEncodingReport(instructions=0, dense_count=0)
        assert report.size_ratio == 1.0

    def test_analyze_counts_correctly(self):
        instructions = [
            Instruction.make("addu", rd=2, rs=2, rt=3),  # dense
            Instruction.make("addu", rd=2, rs=3, rt=4),  # not
            Instruction.make("jr", rs=31),  # dense
            Instruction.make("jal", target=4),  # not
        ]
        report = analyze_dense_encoding(encode_program(instructions))
        assert report.instructions == 4
        assert report.dense_count == 2

    def test_corpus_analysis_plausible(self):
        from repro.workloads import load

        report = analyze_dense_encoding(load("espresso").text)
        # Realistic MIPS code: a meaningful minority fits 16 bits.
        assert 0.15 < report.dense_fraction < 0.70
        assert 0.65 < report.size_ratio < 0.95


class TestExperiment:
    def test_dense_isa_experiment(self):
        from repro.experiments.dense_isa import run_dense_isa

        result = run_dense_isa(programs=("eightq", "espresso"))
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0.5 < row.dense_ratio < 1.0
            assert 0.1 < row.dense_fraction < 0.8
        # Both strategies land in the same density band.
        assert 0.7 < result.weighted_dense < 0.95
        assert 0.65 < result.weighted_ccrp < 0.85
        assert "Dense ISA" in result.render()
