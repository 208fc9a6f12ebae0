"""Vectorized pipeline replay over basic-block execution counts.

Exactly replaying a multi-million-instruction trace through the Python
scoreboard would take minutes per workload.  The timeline instead
exploits the structure of the decomposition (see
:mod:`repro.pipeline.datapath`):

* **branch stalls** are a per-transition property — one penalty per
  dynamic-stream discontinuity — computed with a single vectorized
  comparison over the index stream (bit-identical to the exact
  per-instruction replay of ``tests/fetch_oracle.py``);
* **fetch stalls** are per-miss freezes, reduced by the caller with the
  same vectorized gathers the additive backend uses (a frozen pipeline
  adds exactly the refill cycles, nothing more);
* **hazard stalls** are dominated by *intra-block* interlocks: the
  scoreboard cost of each static basic block is computed once from a
  clean pipeline state, then weighted by the block's execution count
  (one ``bincount``).

The approximation is the per-block state reset: a latency that spans a
block boundary (a load in a delay slot consumed at the branch target,
a divide still running at block entry) is dropped, so the timeline's
hazard total is a *lower bound* on the exact replay's — and equal to it
on straight-line code, where there is a single block.  The property
tests assert both directions of that bound.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.isa.cfg import find_leaders
from repro.isa.instruction import Instruction
from repro.machine.tracing import ExecutionTrace
from repro.pipeline.datapath import (
    PIPELINE_FILL_CYCLES,
    PipelineResult,
    ProgramTiming,
    Scoreboard,
)
from repro.pipeline.hazards import HazardModel, R2000_HAZARDS


class BlockTable:
    """Static basic blocks of one program plus per-block hazard costs.

    Args:
        instructions: The program's static instruction list.
        text_base: Text-segment load address.
        hazards: Interlock parameters the per-block costs are based on.

    Attributes:
        starts: Word index of each block's first instruction.
        lengths: Instructions per block.
        stall_cycles: Hazard stalls of executing each block in full from
            a clean pipeline state.
    """

    def __init__(
        self,
        instructions: tuple[Instruction, ...],
        text_base: int = 0,
        hazards: HazardModel = R2000_HAZARDS,
    ) -> None:
        self.hazards = hazards
        count = len(instructions)
        leaders = find_leaders(instructions, text_base, split_after_syscalls=True)
        words = sorted((address - text_base) >> 2 for address in leaders)
        self.starts = np.array([w for w in words if 0 <= w < count], dtype=np.int64)
        ends = np.append(self.starts[1:], count)
        self.lengths = ends - self.starts
        self.is_leader = np.zeros(count, dtype=bool)
        self.is_leader[self.starts] = True

        self._timing = ProgramTiming(instructions, hazards)
        scoreboard = Scoreboard(self._timing)
        stalls = np.zeros(len(self.starts), dtype=np.int64)
        for block, (start, end) in enumerate(zip(self.starts.tolist(), ends.tolist())):
            scoreboard.reset()
            stalls[block] = scoreboard.run(range(start, end))
        self.stall_cycles = stalls

    def block_of_word(self, words: np.ndarray) -> np.ndarray:
        """Block id containing each static word index."""
        return np.searchsorted(self.starts, words, side="right") - 1


def replay_trace(
    trace: ExecutionTrace | np.ndarray,
    instructions: tuple[Instruction, ...],
    hazards: HazardModel = R2000_HAZARDS,
    block_table: BlockTable | None = None,
    fetch_stall_cycles: int = 0,
    clb_penalty_cycles: int = 0,
    fetch_misses: int = 0,
) -> PipelineResult:
    """Vectorized pipeline replay of a whole execution trace.

    Args:
        trace: An :class:`~repro.machine.tracing.ExecutionTrace` (block
            or flat backed) or a raw static-index stream.
        instructions: The program's static instruction list.
        hazards: Interlock parameters (ignored when ``block_table`` is
            given — the table already owns a model).
        block_table: Reusable per-program block analysis; pass it when
            replaying the same program under several configurations.
        fetch_stall_cycles: Front-end freeze total, reduced by the
            caller from its miss stream (refill gathers + CLB
            penalties); folded into the result unchanged.
        clb_penalty_cycles: The CLB share of ``fetch_stall_cycles``.
        fetch_misses: Miss count behind ``fetch_stall_cycles``.
    """
    if isinstance(trace, ExecutionTrace):
        indices = trace.instruction_indices  # uint32: no int64 copy of the stream
    else:
        indices = np.asarray(trace, dtype=np.int64)
    if len(indices) == 0:
        return PipelineResult(0, 0, 0, 0)
    if indices.min() < 0 or indices.max() >= len(instructions):
        raise ConfigurationError(
            f"trace references instruction {int(indices.max())} outside the "
            f"{len(instructions)}-instruction program"
        )
    table = block_table or BlockTable(instructions, text_base=0, hazards=hazards)

    # Branch redirects: one penalty per dynamic-stream discontinuity —
    # identical to the exact replay's rule, in one vectorized compare.
    redirects = indices[1:] != indices[:-1] + 1
    discontinuities = int(np.count_nonzero(redirects))
    branch_stalls = discontinuities * table.hazards.taken_branch_penalty

    # Hazard stalls: block events -> execution counts -> dot product.
    # An event ends at the next block leader *or* the next dynamic
    # discontinuity: a redirect that re-enters the current block (e.g. a
    # one-instruction self-loop) must start a new event, otherwise the
    # stream is misread as one straight-line pass over the whole block
    # and charged interlocks between instructions that never issued
    # back-to-back (the ``[addu; lw; addu]`` / ``[0, 1, 1]`` case in
    # ``docs/modeling_notes.md`` §15).
    mask = table.is_leader[indices]
    mask[0] = True
    mask[1:] |= redirects
    event_positions = np.nonzero(mask)[0]
    entry_words = indices[event_positions]
    block_ids = table.block_of_word(entry_words)
    event_lengths = np.diff(np.append(event_positions, len(indices)))
    full = (event_lengths == table.lengths[block_ids]) & (
        entry_words == table.starts[block_ids]
    )
    counts = np.bincount(block_ids[full], minlength=len(table.starts))
    hazard_stalls = int(counts @ table.stall_cycles)
    for position in np.nonzero(~full)[0].tolist():
        # Partial or mid-block-entry events (redirects into the middle of
        # a block, the capped tail of a trace) are rare; replay just
        # those through the scoreboard.  Events are contiguous by
        # construction now, so the segment is a plain static range.
        start = int(event_positions[position])
        segment = indices[start : start + int(event_lengths[position])].tolist()
        scoreboard = Scoreboard(table._timing)
        for index in segment:
            hazard_stalls += scoreboard.issue(index)

    return PipelineResult(
        issue_cycles=len(indices),
        fill_cycles=PIPELINE_FILL_CYCLES,
        hazard_stall_cycles=hazard_stalls,
        branch_stall_cycles=branch_stalls,
        fetch_stall_cycles=fetch_stall_cycles,
        clb_penalty_cycles=clb_penalty_cycles,
        fetch_misses=fetch_misses,
    )
