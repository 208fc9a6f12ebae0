"""The 5-stage pipeline state machine: hazard data and the issue scoreboard.

Model
-----

An in-order IF/ID/EX/MEM/WB pipeline with a full bypass network issues
one instruction per cycle unless an interlock holds it: instruction *k*
enters EX at

``issue(k) = max(issue(k-1) + 1, ready(sources), unit_busy) [+ redirect]``

where ``ready`` comes from the producers' result latencies
(:meth:`~repro.pipeline.hazards.HazardModel.result_latency`) and
``unit_busy`` covers the multiply/divide unit and the unpipelined FP
coprocessor.  A dynamic-stream discontinuity (the next instruction is
not the fall-through) means a control transfer actually redirected
fetch; it charges ``taken_branch_penalty`` squashed-fetch cycles.

Fetch freezes, not slides
-------------------------

The paper states the pipeline "is not allowed to slide" during fetch
delays (Section 4.1): a cache-miss refill gates the clock of every
stage, so in-flight results make no progress while the front end waits.
A freeze therefore shifts the whole pipeline timebase uniformly and can
never hide (or be hidden by) a hazard stall.  That gives the exact
decomposition this module and :mod:`repro.pipeline.timeline` share::

    total = issue + fill + hazard + branch + fetch

with each term computed independently.  :mod:`repro.pipeline.timeline`
drives the :class:`Scoreboard` once per basic block; the reference it is
tested against, ``simulate_pipeline`` in ``tests/fetch_oracle.py``,
drives it once per dynamic instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import Instruction
from repro.pipeline.hazards import (
    HazardModel,
    NUM_RESOURCES,
    R2000_HAZARDS,
    register_effects,
)

#: Cycles to fill/drain the pipeline around the issue stream: a 5-stage
#: pipeline completes N instructions in N + 4 cycles.
PIPELINE_FILL_CYCLES = 4


@dataclass(frozen=True)
class PipelineResult:
    """Cycle totals of one pipeline replay, by cause.

    Attributes:
        issue_cycles: One cycle per dynamic instruction.
        fill_cycles: Pipeline fill/drain (4, charged once per run).
        hazard_stall_cycles: Data-hazard and structural interlocks.
        branch_stall_cycles: Squashed fetches after taken transfers.
        fetch_stall_cycles: Front-end freezes (cache refills, including
            any CLB/LAT penalty) — 0 when no fetch unit is attached.
        clb_penalty_cycles: The CLB-miss share of ``fetch_stall_cycles``.
        fetch_misses: Instruction-cache misses seen by the fetch unit.
    """

    issue_cycles: int
    fill_cycles: int
    hazard_stall_cycles: int
    branch_stall_cycles: int
    fetch_stall_cycles: int = 0
    clb_penalty_cycles: int = 0
    fetch_misses: int = 0

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles (excluding data-access penalties)."""
        return (
            self.issue_cycles
            + self.fill_cycles
            + self.hazard_stall_cycles
            + self.branch_stall_cycles
            + self.fetch_stall_cycles
        )

    def breakdown(self) -> dict[str, int]:
        """Per-category cycle counters (for ``--metrics`` reports)."""
        return {
            "issue": self.issue_cycles,
            "fill": self.fill_cycles,
            "hazard": self.hazard_stall_cycles,
            "branch": self.branch_stall_cycles,
            "fetch": self.fetch_stall_cycles,
            "clb_penalty": self.clb_penalty_cycles,
            "total": self.total_cycles,
        }


class ProgramTiming:
    """Per-static-instruction hazard data, derived once per program.

    Attributes:
        reads: Scoreboard indices each instruction reads.
        writes: Scoreboard indices each instruction writes.
        latency: Issue-to-forwardable result latency.
        fp_unit: Whether the instruction occupies the FP coprocessor.
        multdiv: Whether the instruction occupies the multiply/divide unit.
    """

    def __init__(
        self,
        instructions: tuple[Instruction, ...],
        hazards: HazardModel = R2000_HAZARDS,
    ) -> None:
        self.hazards = hazards
        self.reads: list[tuple[int, ...]] = []
        self.writes: list[tuple[int, ...]] = []
        self.latency: list[int] = []
        self.fp_unit: list[bool] = []
        self.multdiv: list[bool] = []
        fp_pipelined = hazards.fp_pipelined
        for instruction in instructions:
            spec = instruction.spec
            effects = register_effects(instruction)
            self.reads.append(effects.reads)
            self.writes.append(effects.writes)
            self.latency.append(hazards.result_latency(spec))
            self.fp_unit.append(not fp_pipelined and hazards.occupies_fp_unit(spec))
            self.multdiv.append(spec.category.value == "multdiv")


class Scoreboard:
    """Issue-time bookkeeping of the datapath (hazards only).

    Operates in the *unfrozen* timebase: fetch freezes gate every stage
    at once, so they are accounted outside (see module docstring).
    """

    def __init__(self, timing: ProgramTiming) -> None:
        self.timing = timing
        self.reset()

    def reset(self) -> None:
        self._ready = [0] * NUM_RESOURCES
        self._multdiv_busy = 0
        self._fp_busy = 0
        self._time = -1  # so the first instruction issues at cycle 0

    def issue(self, index: int) -> int:
        """Issue static instruction ``index``; returns its stall cycles."""
        timing = self.timing
        base = self._time + 1
        start = base
        ready = self._ready
        for resource in timing.reads[index]:
            when = ready[resource]
            if when > start:
                start = when
        if timing.multdiv[index] and self._multdiv_busy > start:
            start = self._multdiv_busy
        if timing.fp_unit[index] and self._fp_busy > start:
            start = self._fp_busy
        done = start + timing.latency[index]
        for resource in timing.writes[index]:
            ready[resource] = done
        if timing.multdiv[index]:
            self._multdiv_busy = done
        if timing.fp_unit[index]:
            self._fp_busy = done
        self._time = start
        return start - base

    def run(self, indices) -> int:
        """Total hazard stalls of issuing ``indices`` back to back."""
        total = 0
        for index in indices:
            total += self.issue(index)
        return total
