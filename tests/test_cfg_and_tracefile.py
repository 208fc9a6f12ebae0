"""Tests for static CFG construction."""

from __future__ import annotations

import pytest

from repro.isa import Assembler
from repro.isa.cfg import build_cfg

SOURCE = """
main:
    li   $t0, 3
loop:
    addiu $t0, $t0, -1
    bnez $t0, loop
    nop
    jal  helper
    nop
    b    done
    nop
helper:
    jr   $ra
    nop
done:
    li $v0, 10
    syscall
"""


@pytest.fixture(scope="module")
def program():
    return Assembler().assemble(SOURCE)


class TestControlFlowGraph:
    def test_leaders_found(self, program):
        cfg = build_cfg(program.text)
        assert program.labels["loop"] in cfg.blocks
        assert program.labels["helper"] in cfg.blocks
        assert program.labels["done"] in cfg.blocks

    def test_loop_back_edge(self, program):
        cfg = build_cfg(program.text)
        loop = cfg.blocks[program.labels["loop"]]
        assert program.labels["loop"] in loop.successors  # taken
        assert loop.end in loop.successors  # fall-through
        assert loop.terminator == "bne"

    def test_delay_slot_belongs_to_branch_block(self, program):
        cfg = build_cfg(program.text)
        loop = cfg.blocks[program.labels["loop"]]
        # addiu + bnez + nop = 3 instructions in the loop block
        assert loop.instruction_count == 3

    def test_call_block_falls_through(self, program):
        cfg = build_cfg(program.text)
        call_block = cfg.block_at(program.labels["loop"] + 12)
        assert call_block.terminator == "jal"
        assert call_block.successors == (call_block.end,)

    def test_unconditional_b_has_single_successor(self, program):
        cfg = build_cfg(program.text)
        jump_block = next(
            block for block in cfg.blocks.values() if block.terminator == "beq"
        )
        assert jump_block.successors == (program.labels["done"],)

    def test_jr_block_has_no_successors(self, program):
        cfg = build_cfg(program.text)
        helper = cfg.blocks[program.labels["helper"]]
        assert helper.terminator == "jr"
        assert helper.successors == ()

    def test_block_at_interior_address(self, program):
        cfg = build_cfg(program.text)
        loop_start = program.labels["loop"]
        assert cfg.block_at(loop_start + 4).start == loop_start
        with pytest.raises(KeyError):
            cfg.block_at(len(program.text) + 64)

    def test_reachability(self, program):
        cfg = build_cfg(program.text)
        reachable = cfg.reachable_from(0)
        assert program.labels["loop"] in reachable
        assert program.labels["done"] in reachable
        # helper is only reached via jal (a call edge is fall-through in
        # this CFG), so it is not in the *jump* reachability set.
        assert program.labels["helper"] not in reachable

    def test_blocks_partition_text(self, program):
        cfg = build_cfg(program.text)
        covered = sorted(
            (block.start, block.end) for block in cfg.blocks.values()
        )
        position = 0
        for start, end in covered:
            assert start == position
            position = end
        assert position == len(program.text)

    def test_stats_helpers(self, program):
        cfg = build_cfg(program.text)
        assert cfg.block_count == len(cfg.blocks)
        assert cfg.average_block_bytes() > 0

    def test_workload_cfg_smoke(self):
        from repro.workloads import load

        cfg = build_cfg(load("eightq").text)
        assert cfg.block_count > 50
        assert 8 <= cfg.average_block_bytes() < 200

    def test_empty_text(self):
        cfg = build_cfg(b"")
        assert cfg.block_count == 0
