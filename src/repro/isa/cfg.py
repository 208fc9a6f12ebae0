"""Static control-flow analysis of MIPS-I text segments.

Finds basic-block leaders (:func:`find_leaders`, which the superop
executor and the pipeline timeline carve blocks at) and the statically
resolvable transfer edges (:func:`static_transfer_targets`, which train
the prefetch unit's branch-target buffer), straight from decoded text.

Branch delay slots are modelled the MIPS way: the slot instruction
belongs to its branch's block, so the instruction after the slot starts
the next one.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Category


def _branch_target(instruction: Instruction, address: int) -> int:
    return address + 4 + (instruction.imm_signed << 2)


def _jump_target(instruction: Instruction, address: int) -> int:
    return ((address + 4) & 0xF000_0000) | (instruction.target << 2)


def find_leaders(
    instructions: tuple[Instruction, ...] | list[Instruction],
    text_base: int = 0,
    split_after_syscalls: bool = False,
) -> set[int]:
    """Basic-block leader addresses of a decoded text segment.

    Leaders are the entry point, every branch/jump target, and the
    instruction after each control transfer's delay slot.  With
    ``split_after_syscalls`` the instruction after a ``syscall`` or
    ``break`` also starts a block — the superop execution engine needs
    syscalls to end blocks so a mid-run exit never splits an event.
    """
    count = len(instructions)
    text_end = text_base + 4 * count
    leaders: set[int] = {text_base} if count else set()
    # Memoise the control-transfer property per (shared) spec object:
    # large programs hit this loop tens of thousands of times.
    transfers: dict[int, bool] = {}
    for index, instruction in enumerate(instructions):
        address = text_base + 4 * index
        spec = instruction.spec
        is_transfer = transfers.get(id(spec))
        if is_transfer is None:
            is_transfer = transfers[id(spec)] = spec.is_control_transfer
        if not is_transfer:
            if split_after_syscalls and instruction.mnemonic in ("syscall", "break"):
                leaders.add(address + 4)
            continue
        category = instruction.spec.category
        if category in (Category.BRANCH, Category.FP_BRANCH):
            leaders.add(_branch_target(instruction, address))
        elif category in (Category.JUMP, Category.CALL):
            if instruction.mnemonic in ("j", "jal"):
                leaders.add(_jump_target(instruction, address))
            elif instruction.mnemonic in ("bltzal", "bgezal"):
                leaders.add(_branch_target(instruction, address))
        # the instruction after the delay slot starts a new block
        leaders.add(address + 8)
    return {leader for leader in leaders if text_base <= leader < text_end}


def static_transfer_targets(
    instructions: tuple[Instruction, ...] | list[Instruction],
    text_base: int = 0,
) -> list[tuple[int, int]]:
    """Statically-resolvable control-transfer edges of a text segment.

    Returns ``(instruction_address, target_address)`` pairs, in static
    program order, for every branch (conditional or linking) and direct
    jump whose target is an immediate — the edges the branch-target
    buffer of :mod:`repro.prefetch` is trained from.  Indirect transfers
    (``jr``/``jalr``) have no static target and are omitted; targets
    outside the text segment are dropped.
    """
    count = len(instructions)
    text_end = text_base + 4 * count
    edges: list[tuple[int, int]] = []
    for index, instruction in enumerate(instructions):
        spec = instruction.spec
        if not spec.is_control_transfer:
            continue
        address = text_base + 4 * index
        category = spec.category
        if category in (Category.BRANCH, Category.FP_BRANCH):
            target = _branch_target(instruction, address)
        elif instruction.mnemonic in ("j", "jal"):
            target = _jump_target(instruction, address)
        elif instruction.mnemonic in ("bltzal", "bgezal"):
            target = _branch_target(instruction, address)
        else:  # jr / jalr: target unknown until run time
            continue
        if text_base <= target < text_end:
            edges.append((address, target))
    return edges
