"""Tests for the two-pass assembler and the disassembler."""

from __future__ import annotations

import pytest

from repro.errors import AssemblerError
from repro.isa import Assembler, Instruction, decode, disassemble, encode
from repro.isa.assembler import DEFAULT_DATA_BASE
from repro.isa.decoding import decode_program
from repro.isa.disassembler import disassemble_program


def assemble(source: str):
    return Assembler().assemble(source)


class TestBasicAssembly:
    def test_single_instruction(self):
        program = assemble("addu $v0, $a0, $a1")
        assert decode_program(program.text) == [Instruction.make("addu", rd=2, rs=4, rt=5)]

    def test_numeric_registers(self):
        program = assemble("addu $2, $4, $5")
        assert decode_program(program.text) == [Instruction.make("addu", rd=2, rs=4, rt=5)]

    def test_comments_and_blank_lines(self):
        program = assemble(
            """
            # leading comment
            addu $v0, $a0, $a1   # trailing comment

            """
        )
        assert program.size == 4

    def test_label_and_branch_backward(self):
        program = assemble(
            """
            loop: addiu $t0, $t0, -1
                  bne $t0, $zero, loop
            """
        )
        branch = decode_program(program.text)[1]
        assert branch.mnemonic == "bne"
        assert branch.imm_signed == -2  # back to loop from delay-slot PC

    def test_branch_forward(self):
        program = assemble(
            """
            beq $zero, $zero, done
            nop
            nop
            done: nop
            """
        )
        branch = decode_program(program.text)[0]
        assert branch.imm_signed == 2

    def test_jump_targets_are_word_addresses(self):
        program = assemble(
            """
            main: j main
            """
        )
        jump = decode_program(program.text)[0]
        assert jump.target == program.text_base >> 2

    def test_entry_defaults_to_main(self):
        program = assemble(
            """
            nop
            main: nop
            """
        )
        assert program.entry == program.text_base + 4

    def test_entry_without_main_is_text_base(self):
        program = assemble("nop")
        assert program.entry == program.text_base

    def test_memory_operand_forms(self):
        program = assemble(
            """
            lw $t0, 8($sp)
            lw $t1, -4($sp)
            lw $t2, ($sp)
            sw $t0, 0x10($gp)
            """
        )
        decoded = decode_program(program.text)
        assert [i.imm_signed for i in decoded] == [8, -4, 0, 16]

    def test_label_on_same_line_as_instruction(self):
        program = assemble("start: nop")
        assert program.labels["start"] == program.text_base


class TestPseudoInstructions:
    def test_nop_is_zero_word(self):
        assert assemble("nop").text == b"\x00\x00\x00\x00"

    def test_move(self):
        decoded = decode_program(assemble("move $t0, $t1").text)
        assert decoded == [Instruction.make("addu", rd=8, rs=9)]

    def test_li_small_positive(self):
        decoded = decode_program(assemble("li $t0, 42").text)
        assert decoded == [Instruction.make("addiu", rt=8, imm=42)]

    def test_li_negative(self):
        decoded = decode_program(assemble("li $t0, -5").text)
        assert decoded == [Instruction.make("addiu", rt=8, imm=-5)]

    def test_li_16bit_unsigned_uses_ori(self):
        decoded = decode_program(assemble("li $t0, 0xFFFF").text)
        assert decoded == [Instruction.make("ori", rt=8, imm=0xFFFF)]

    def test_li_large_uses_lui_ori(self):
        decoded = decode_program(assemble("li $t0, 0x12345678").text)
        assert decoded == [
            Instruction.make("lui", rt=8, imm=0x1234),
            Instruction.make("ori", rt=8, rs=8, imm=0x5678),
        ]

    def test_la_resolves_data_label(self):
        program = assemble(
            """
            .data
            buffer: .space 16
            .text
            la $t0, buffer
            """
        )
        decoded = decode_program(program.text)
        address = (decoded[0].imm_unsigned << 16) | decoded[1].imm_unsigned
        assert address == DEFAULT_DATA_BASE

    def test_unconditional_b(self):
        decoded = decode_program(assemble("target: b target").text)
        assert decoded[0].mnemonic == "beq"
        assert decoded[0].rs == 0 and decoded[0].rt == 0

    def test_beqz_bnez(self):
        decoded = decode_program(
            assemble(
                """
                top: beqz $t0, top
                     bnez $t1, top
                """
            ).text
        )
        assert decoded[0].mnemonic == "beq" and decoded[0].rs == 8
        assert decoded[1].mnemonic == "bne" and decoded[1].rs == 9

    def test_blt_expands_to_slt_bne(self):
        decoded = decode_program(
            assemble(
                """
                top: nop
                     blt $t0, $t1, top
                """
            ).text
        )
        assert decoded[1].mnemonic == "slt"
        assert decoded[1].rd == 1  # $at
        assert decoded[2].mnemonic == "bne"
        # Branch back to `top` from the bne at offset 8: delta = 0 - 12 = -3.
        assert decoded[2].imm_signed == -3

    def test_bge_expands_to_slt_beq(self):
        decoded = decode_program(assemble("top: bge $t0, $t1, top").text)
        assert decoded[0].mnemonic == "slt"
        assert decoded[1].mnemonic == "beq"

    def test_bgt_swaps_operands(self):
        decoded = decode_program(assemble("top: bgt $t0, $t1, top").text)
        slt = decoded[0]
        assert (slt.rs, slt.rt) == (9, 8)

    def test_mul_expands_to_mult_mflo(self):
        decoded = decode_program(assemble("mul $t0, $t1, $t2").text)
        assert [i.mnemonic for i in decoded] == ["mult", "mflo"]

    def test_ld_sd_expand_to_word_pairs(self):
        decoded = decode_program(
            assemble(
                """
                l.d $f2, 8($t0)
                s.d $f2, 16($t0)
                """
            ).text
        )
        assert [i.mnemonic for i in decoded] == ["lwc1", "lwc1", "swc1", "swc1"]
        assert [i.imm_signed for i in decoded] == [8, 12, 16, 20]
        assert [i.rt for i in decoded] == [2, 3, 2, 3]


class TestDataDirectives:
    def test_word_values(self):
        program = assemble(
            """
            .data
            values: .word 1, 2, -1
            """
        )
        assert program.data == b"\x00\x00\x00\x01\x00\x00\x00\x02\xff\xff\xff\xff"

    def test_word_label_reference(self):
        program = assemble(
            """
            .data
            ptr: .word target
            .text
            target: nop
            """
        )
        assert int.from_bytes(program.data, "big") == program.labels["target"]

    def test_space_zero_filled(self):
        program = assemble(
            """
            .data
            buf: .space 8
            tail: .word 5
            """
        )
        assert program.data[:8] == bytes(8)
        assert program.labels["tail"] == DEFAULT_DATA_BASE + 8

    def test_byte_and_half(self):
        program = assemble(
            """
            .data
            b: .byte 1, 2
            .align 1
            h: .half 0x1234
            """
        )
        assert program.data == b"\x01\x02\x12\x34"

    def test_float_and_double(self):
        program = assemble(
            """
            .data
            f: .float 1.0
            d: .double 2.0
            """
        )
        assert program.data[:4] == b"\x3f\x80\x00\x00"
        assert program.data[8:16] == b"\x40\x00\x00\x00\x00\x00\x00\x00"

    def test_asciiz(self):
        program = assemble(
            """
            .data
            s: .asciiz "hi"
            """
        )
        assert program.data == b"hi\x00"

    def test_align_in_data(self):
        program = assemble(
            """
            .data
            a: .byte 1
            .align 2
            w: .word 7
            """
        )
        assert program.labels["w"] == DEFAULT_DATA_BASE + 4

    def test_align_in_text_pads_with_zero_words(self):
        program = assemble("nop\n.align 4\nl: nop\nj l\n")
        assert program.labels["l"] == 16
        assert len(program.text) == 24 == 4 * len(program.instructions)
        assert program.text[:20] == bytes(20)  # nop, three padding nops, nop
        assert program.instructions[5].mnemonic == "j"
        assert program.instructions[5].target << 2 == 16


class TestAssemblerErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "frobnicate $t0",
            "addu $t0, $t1",  # wrong operand count
            "addu $t9, $t1, $nope",
            "sll $t0, $t1, 32",  # shift out of range
            "addiu $t0, $t1, 0x8000",  # signed imm overflow
            "lw $t0, 0x8000($sp)",  # offset overflow
            "beq $t0, $t1, nowhere",
            ".data\n.word\n.text\nnop\n.weird",
            "x: nop\nx: nop",  # duplicate label
            ".data\nnop",  # instruction in data section
        ],
    )
    def test_bad_source_raises(self, source):
        with pytest.raises(AssemblerError):
            assemble(source)

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("nop\nnop\nbogus $t0\n")

    def test_unaligned_text_base_rejected(self):
        with pytest.raises(AssemblerError):
            Assembler(text_base=2)

    def test_repeated_bad_line_reports_its_first_occurrence(self):
        with pytest.raises(AssemblerError, match="^line 2:") as raised:
            assemble("nop\naddiu $t0, $t1, 0x8000\nnop\naddiu $t0, $t1, 0x8000\n")
        assert raised.value.line_number == 2

    def test_repeated_branch_reports_the_occurrence_that_fails(self):
        # The same branch text is in range at line 2 but not 0x8000
        # instructions further on: the error names the later line.
        padding = "nop\n" * 0x8000
        last = 0x8000 + 3
        with pytest.raises(AssemblerError, match=f"^line {last}:") as raised:
            assemble(f"near: nop\nb near\n{padding}b near\n")
        assert raised.value.line_number == last


class TestRepeatedLines:
    """Pass two expands a position-independent line once per distinct
    text; lines whose encoding depends on the PC or a label never share."""

    @pytest.mark.parametrize(
        "line",
        [
            "b target",
            "beq $t0, $t1, target",
            "bnez $t0, target",
            "blt $t0, $t1, target",
            "la $t0, target",
            "j target",
            "jal target",
        ],
    )
    def test_position_dependent_line_encodes_as_at_its_own_pc(self, line):
        program = assemble(
            f"main:\n    {line}\n    nop\n    nop\n    {line}\n    nop\ntarget:\n    nop\n"
        )
        size = 8 if line.startswith(("blt", "la")) else 4
        absolute = line.replace("target", hex(program.labels["target"]))
        for pc in (0, size + 8):
            fresh = Assembler(text_base=pc).assemble(absolute)
            assert program.text[pc : pc + size] == fresh.text, (line, pc)

    def test_branch_offsets_differ_between_occurrences(self):
        program = assemble("bnez $t0, end\nnop\nbnez $t0, end\nend: nop\n")
        assert program.instructions[0].imm_signed == 2
        assert program.instructions[2].imm_signed == 0

    def test_equal_instructions_stay_one_object(self):
        program = assemble(
            "addu $t0, $t1, $t2\n"
            "addu $8, $9, $10\n"  # the same instruction, spelt differently
            "addu $t0, $t1, $t2\n"
            "x: b x\n"
            "y: b y\n"  # position dependent, equal offset
        )
        first, spelt, again, branch, other = program.instructions
        assert first is spelt is again
        assert branch is other
        assert first is not branch


class TestDisassembler:
    def test_round_trip_through_text(self):
        source = """
        main:
            li   $t0, 100
            li   $t1, 0
        loop:
            addu $t1, $t1, $t0
            addiu $t0, $t0, -1
            bnez $t0, loop
            nop
            jr   $ra
            nop
        """
        program = assemble(source)
        listing = [
            disassemble(instr, address=program.text_base + 4 * i)
            for i, instr in enumerate(program.instructions)
        ]
        reassembled = assemble("\n".join(listing))
        # Branch operands disassemble as raw offsets, so compare via decode.
        assert [i.mnemonic for i in decode_program(reassembled.text)] == [
            i.mnemonic for i in program.instructions
        ]

    def test_disassemble_program_lists_addresses(self):
        program = assemble("nop\nnop")
        lines = disassemble_program(program.text, base=program.text_base)
        assert lines[0].startswith("000000:")
        assert "nop" in lines[0]

    def test_branch_target_rendering_with_address(self):
        program = assemble("top: nop\nbne $t0, $zero, top")
        rendered = disassemble(program.instructions[1], address=4)
        assert rendered.endswith("0x0")

    def test_fp_rendering(self):
        program = assemble("add.d $f4, $f2, $f0")
        assert disassemble(program.instructions[0]) == "add.d $f4, $f2, $f0"

    @pytest.mark.parametrize("shamt", [0, 1, 31])
    def test_zero_register_shift_round_trips(self, shamt):
        # Only the all-zero word is ``nop``; a nonzero shift amount must survive.
        word = encode(Instruction.make("sll", rd=0, rt=0, shamt=shamt))
        rendered = disassemble(decode(word))
        assert (rendered == "nop") == (shamt == 0)
        assert assemble(rendered).text == word.to_bytes(4, "big")
