"""Tests for static control-flow analysis: block leaders and transfer edges."""

from __future__ import annotations

import pytest

from repro.isa import Assembler
from repro.isa.cfg import find_leaders, static_transfer_targets

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


def _edges(program):
    return static_transfer_targets(program.instructions)


class TestControlFlowGraph:
    def test_leaders_found(self, program):
        leaders = find_leaders(program.instructions)
        assert program.labels["loop"] in leaders
        assert program.labels["helper"] in leaders
        assert program.labels["done"] in leaders

    def test_loop_back_edge(self, program):
        branch = program.labels["loop"] + 4  # bnez, after the addiu
        assert (branch, program.labels["loop"]) in _edges(program)
        # The fall-through past the delay slot starts a block.
        assert branch + 8 in find_leaders(program.instructions)

    def test_delay_slot_belongs_to_branch_block(self, program):
        leaders = sorted(find_leaders(program.instructions))
        loop = program.labels["loop"]
        # addiu + bnez + nop = 3 instructions before the next leader
        assert leaders[leaders.index(loop) + 1] == loop + 12

    def test_call_block_falls_through(self, program):
        call = program.labels["loop"] + 12
        assert program.instructions[call // 4].mnemonic == "jal"
        assert (call, program.labels["helper"]) in _edges(program)
        assert call + 8 in find_leaders(program.instructions)

    def test_unconditional_b_has_single_successor(self, program):
        jump = program.labels["loop"] + 20
        assert program.instructions[jump // 4].mnemonic == "beq"
        assert [target for source, target in _edges(program) if source == jump] == [
            program.labels["done"]
        ]

    def test_jr_block_has_no_successors(self, program):
        helper = program.labels["helper"]
        assert program.instructions[helper // 4].mnemonic == "jr"
        assert all(source != helper for source, _ in _edges(program))

    def test_blocks_partition_text(self, program):
        # Blocks carved at the leaders cover the text exactly: the first
        # starts at the entry and every one starts on a word inside it.
        leaders = sorted(find_leaders(program.instructions))
        assert leaders[0] == 0
        assert all(leader % 4 == 0 and leader < len(program.text) for leader in leaders)
        edges = _edges(program)
        assert {target for _, target in edges} <= set(leaders)

    def test_workload_cfg_smoke(self):
        from repro.workloads import load

        workload = load("eightq")
        instructions = workload.program.instructions
        leaders = find_leaders(instructions)
        assert len(leaders) > 50
        assert 8 <= 4 * len(instructions) / len(leaders) < 200
        text_end = 4 * len(instructions)
        assert all(0 <= target < text_end for _, target in static_transfer_targets(instructions))

    def test_empty_text(self):
        assert find_leaders(()) == set()
        assert static_transfer_targets(()) == []
