"""Pixie-style pipeline-stall estimation.

The paper folds pipeline-stall counts measured by ``pixie`` on a 16.67 MHz
R2000 into its cycle totals (Section 4.1).  We reproduce that additive role
with a static per-mnemonic extra-cycle model: each dynamic instruction
costs one issue cycle plus the extra cycles of its category, as if every
long-latency result were consumed immediately (embedded inner loops are
close to this worst case, and the paper itself notes the pipeline is not
allowed to slide during fetch delays).

The default latencies follow the R2000/R2010 documentation [Kane92]:
integer multiply 12 cycles, divide 35; R2010 FP add 2, single/double
multiply 4/5, single/double divide 12/19 cycles; conversions 2–3 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.instruction import Instruction

#: Extra cycles beyond the single issue cycle, per mnemonic.
_R2000_EXTRA_CYCLES: dict[str, int] = {
    "mult": 11,
    "multu": 11,
    "div": 34,
    "divu": 34,
    "add.s": 1,
    "add.d": 1,
    "sub.s": 1,
    "sub.d": 1,
    "mul.s": 3,
    "mul.d": 4,
    "div.s": 11,
    "div.d": 18,
    "abs.s": 1,
    "abs.d": 1,
    "neg.s": 1,
    "neg.d": 1,
    "cvt.s.d": 1,
    "cvt.s.w": 2,
    "cvt.d.s": 1,
    "cvt.d.w": 2,
    "cvt.w.s": 2,
    "cvt.w.d": 2,
    "c.eq.s": 1,
    "c.eq.d": 1,
    "c.lt.s": 1,
    "c.lt.d": 1,
    "c.le.s": 1,
    "c.le.d": 1,
}


@dataclass(frozen=True)
class StallModel:
    """Maps dynamic instruction mix to pipeline-stall cycles.

    Attributes:
        extra_cycles: Mnemonic -> stall cycles charged per execution.
    """

    extra_cycles: dict[str, int] = field(default_factory=lambda: dict(_R2000_EXTRA_CYCLES))

    def per_instruction_costs(self, instructions: tuple[Instruction, ...]) -> np.ndarray:
        """Static extra-cycle cost for each instruction in a text segment."""
        get = self.extra_cycles.get
        return np.array(
            [get(instruction.mnemonic, 0) for instruction in instructions],
            dtype=np.int64,
        )

    def stall_cycles(
        self,
        instruction_indices: np.ndarray,
        instructions: tuple[Instruction, ...],
    ) -> int:
        """Total stall cycles for a dynamic trace.

        Args:
            instruction_indices: Static instruction index per dynamic access
                (see :attr:`ExecutionTrace.instruction_indices`).
            instructions: The program's static instruction list.
        """
        costs = self.per_instruction_costs(instructions)
        if costs.max(initial=0) == 0 or len(instruction_indices) == 0:
            return 0
        counts = np.bincount(instruction_indices, minlength=len(costs))
        return int(np.dot(counts[: len(costs)], costs))

    def stall_cycles_from_counts(
        self,
        execution_counts: np.ndarray,
        instructions: tuple[Instruction, ...],
    ) -> int:
        """Total stall cycles from per-instruction execution counts.

        The flat model is order-independent, so block-level traces can
        charge stalls straight off their execution histogram without
        ever materialising the per-instruction address stream.
        """
        costs = self.per_instruction_costs(instructions)
        if costs.max(initial=0) == 0 or len(execution_counts) == 0:
            return 0
        return int(np.dot(execution_counts[: len(costs)], costs))


#: The default stall model used throughout the experiments.
R2000_STALLS = StallModel()
