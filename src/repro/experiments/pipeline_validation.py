"""Pipeline-vs-additive timing validation across the workload suite.

The cycle-accurate 5-stage backend (:mod:`repro.pipeline`) and the
paper's additive stall model disagree exactly where they should: the
additive model charges every long-latency result its full latency and
cannot see branch redirects, while the pipeline model charges only the
*unabsorbed* latency plus the redirect bubbles.  This experiment pins
that relationship down:

* for every simulation workload under both timing backends and all
  three memory models (EPROM, Burst EPROM, SC-DRAM), the CCRP machine's
  total cycles and the pipeline backend's stall breakdown;
* a hazard-free straight-line program, where the two backends must
  agree to within :data:`~repro.pipeline.datapath.PIPELINE_FILL_CYCLES`
  cycles — the pipeline fill is the only term the additive model lacks
  once hazards and redirects are gone (the refill terms are computed by
  the same vectorized gathers on both backends).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.artifacts import get_study
from repro.core.config import SystemConfig
from repro.core.study import ProgramStudy
from repro.experiments.formats import render_table
from repro.isa.assembler import Assembler
from repro.pipeline.datapath import PIPELINE_FILL_CYCLES
from repro.workloads.suite import SIMULATION_PROGRAMS, Workload

#: The paper's three instruction-memory implementations.
MEMORY_NAMES = ("eprom", "burst_eprom", "sc_dram")

#: Hazard-free straight-line source: single-cycle ALU results are fully
#: forwardable, so the pipeline model adds no stalls of any category.
_STRAIGHT_LINE_SOURCE = (
    ".text\nmain:\n    addiu $t0, $zero, 7\n"
    + "".join(
        f"    addiu $t{index % 8}, $t{(index + 1) % 8}, {index + 1}\n"
        for index in range(96)
    )
    + "    or  $a0, $zero, $zero\n    li  $v0, 10\n    syscall\n"
)


@dataclass(frozen=True)
class ValidationRow:
    """One workload under one memory model, both timing backends."""

    program: str
    memory: str
    additive_total: int
    pipeline_total: int
    ratio: float  # pipeline / additive
    hazard_stalls: int
    branch_stalls: int
    fetch_stalls: int
    data_stalls: int


@dataclass(frozen=True)
class StraightLineCheck:
    """Backend agreement on hazard-free straight-line code."""

    additive_total: int
    pipeline_total: int
    divergence: int
    bound: int

    @property
    def within_bound(self) -> bool:
        return abs(self.divergence) <= self.bound


@dataclass(frozen=True)
class PipelineValidationResult:
    rows: tuple[ValidationRow, ...]
    straight_line: StraightLineCheck

    def render(self) -> str:
        table = render_table(
            "Pipeline vs additive timing (CCRP machine, 1 KB cache)",
            (
                "Program",
                "Memory",
                "Additive cyc",
                "Pipeline cyc",
                "Pipe/Add",
                "Hazard",
                "Branch",
                "Fetch",
                "Data",
            ),
            [
                (
                    row.program,
                    row.memory,
                    row.additive_total,
                    row.pipeline_total,
                    row.ratio,
                    row.hazard_stalls,
                    row.branch_stalls,
                    row.fetch_stalls,
                    row.data_stalls,
                )
                for row in self.rows
            ],
        )
        check = self.straight_line
        verdict = "within" if check.within_bound else "OUTSIDE"
        return table + (
            "\n\nStraight-line agreement: additive "
            f"{check.additive_total} vs pipeline {check.pipeline_total} cycles "
            f"(divergence {check.divergence}, {verdict} the documented "
            f"bound of {check.bound} fill cycles)."
            "\nThe pipeline backend sees branch redirects the additive model"
            "\ncannot, and forgives latency the instruction spacing absorbs."
        )


def straight_line_workload() -> Workload:
    """The hazard-free validation program as an ad-hoc workload."""
    program = Assembler().assemble(_STRAIGHT_LINE_SOURCE)
    return Workload(name="straightline", program=program, executable=True)


def run_pipeline_validation(
    programs: tuple[str, ...] = SIMULATION_PROGRAMS,
    cache_bytes: int = 1024,
) -> PipelineValidationResult:
    """Run the suite under both backends and all three memory models."""
    rows = []
    for program in programs:
        study = get_study(program)
        for memory in MEMORY_NAMES:
            additive = study.metrics(
                SystemConfig(cache_bytes=cache_bytes, memory=memory, timing="additive")
            )
            pipeline = study.metrics(
                SystemConfig(cache_bytes=cache_bytes, memory=memory, timing="pipeline")
            )
            ccrp = pipeline.ccrp
            rows.append(
                ValidationRow(
                    program=program,
                    memory=memory,
                    additive_total=additive.ccrp.total_cycles,
                    pipeline_total=ccrp.total_cycles,
                    ratio=ccrp.total_cycles / additive.ccrp.total_cycles,
                    hazard_stalls=ccrp.hazard_stall_cycles,
                    branch_stalls=ccrp.branch_stall_cycles,
                    fetch_stalls=ccrp.refill_cycles,
                    data_stalls=ccrp.data_cycles,
                )
            )

    study = ProgramStudy(straight_line_workload())
    additive = study.metrics(SystemConfig(timing="additive")).ccrp.total_cycles
    pipeline = study.metrics(SystemConfig(timing="pipeline")).ccrp.total_cycles
    check = StraightLineCheck(
        additive_total=additive,
        pipeline_total=pipeline,
        divergence=pipeline - additive,
        bound=PIPELINE_FILL_CYCLES,
    )
    return PipelineValidationResult(rows=tuple(rows), straight_line=check)
