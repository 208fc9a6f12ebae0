"""Prefetching fetch policies: miss-latency hiding vs wasted bandwidth.

The paper's CCRP charges every instruction-cache miss the full
sequential Huffman decode latency — the price of compression.  The
prefetching refill engine (:mod:`repro.prefetch`) overlaps speculative
decodes with execution; this experiment quantifies how much of the
decompression bill that recovers, and what it costs:

* the main table runs every simulation workload under all three memory
  models and all three fetch policies (``demand``, ``nextline``,
  ``btb``), reporting CCRP fetch stalls, the reduction vs demand, the
  paper's relative-performance metric, and the honest waste counters
  (useless prefetches, wrong-path traffic bytes);
* a CLB-size sweep and a prefetch-buffer-depth sweep on one
  representative workload show how the hiding interacts with the LAT
  cache and with buffer pressure.

Every number comes from the vectorized timeline replay
(:meth:`~repro.core.study.ProgramStudy.prefetch_replay`).  A tier-1 test
(``tests/test_prefetch.py``) checks that replay, every counter, against
a per-access walk of the full trace for every (workload, policy) cell
on ``sc_dram``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.artifacts import get_study
from repro.core.config import SystemConfig
from repro.experiments.formats import render_table
from repro.prefetch import FETCH_POLICIES
from repro.workloads.suite import SIMULATION_PROGRAMS

#: The paper's three instruction-memory implementations.
MEMORY_NAMES = ("eprom", "burst_eprom", "sc_dram")

#: Workload for the CLB / depth sweeps: large enough that its miss
#: stream exercises the CLB, sequential enough that prefetching matters.
SWEEP_PROGRAM = "nasa7"


@dataclass(frozen=True)
class PolicyRow:
    """One (program, memory, policy) cell of the main table."""

    program: str
    memory: str
    policy: str
    fetch_stalls: int
    reduction_pct: float  # vs the demand policy, same program/memory
    relative_time: float  # T_CCRP / T_standard (the paper's metric)
    issued: int
    useful: int
    useless: int
    partial: int
    covered_cycles: int
    wasted_bytes: int


@dataclass(frozen=True)
class SweepRow:
    """One point of the CLB-size or buffer-depth sweep."""

    parameter: int
    policy: str
    fetch_stalls: int
    reduction_pct: float


@dataclass(frozen=True)
class PrefetchStudyResult:
    rows: tuple[PolicyRow, ...]
    clb_sweep: tuple[SweepRow, ...]
    depth_sweep: tuple[SweepRow, ...]
    cache_bytes: int
    sweep_program: str

    @property
    def best_reduction(self) -> PolicyRow:
        return max(self.rows, key=lambda row: row.reduction_pct)

    def render(self) -> str:
        main = render_table(
            f"Prefetching fetch policies (CCRP machine, "
            f"{self.cache_bytes} B cache, 16-entry CLB)",
            (
                "Program",
                "Memory",
                "Policy",
                "Fetch stalls",
                "vs demand",
                "Rel. perf",
                "Issued",
                "Useful",
                "Useless",
                "Wasted B",
            ),
            [
                (
                    row.program,
                    row.memory,
                    row.policy,
                    row.fetch_stalls,
                    f"-{row.reduction_pct:.1f}%" if row.policy != "demand" else "",
                    row.relative_time,
                    row.issued,
                    row.useful,
                    row.useless,
                    row.wasted_bytes,
                )
                for row in self.rows
            ],
        )
        clb = render_table(
            f"CLB-size sweep ({self.sweep_program}, sc_dram)",
            ("CLB entries", "Policy", "Fetch stalls", "vs demand"),
            [
                (row.parameter, row.policy, row.fetch_stalls, f"-{row.reduction_pct:.1f}%")
                for row in self.clb_sweep
            ],
        )
        depth = render_table(
            f"Prefetch-buffer depth sweep ({self.sweep_program}, sc_dram)",
            ("Depth", "Policy", "Fetch stalls", "vs demand"),
            [
                (row.parameter, row.policy, row.fetch_stalls, f"-{row.reduction_pct:.1f}%")
                for row in self.depth_sweep
            ],
        )
        best = self.best_reduction
        return (
            main
            + "\n\n"
            + clb
            + "\n\n"
            + depth
            + "\n\nBest stall reduction: "
            f"{best.program} @ {best.memory}/{best.policy} "
            f"(-{best.reduction_pct:.1f}%, {best.covered_cycles:,} cycles hidden)."
        )


def _policy_config(
    cache_bytes: int, memory: str, policy: str, **overrides
) -> SystemConfig:
    return SystemConfig(
        cache_bytes=cache_bytes,
        memory=memory,
        timing="pipeline",
        fetch_policy=policy,
        **overrides,
    )


def run_prefetch_study(
    programs: tuple[str, ...] = SIMULATION_PROGRAMS,
    cache_bytes: int = 1024,
    clb_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    depths: tuple[int, ...] = (1, 2, 4, 8),
    sweep_program: str = SWEEP_PROGRAM,
) -> PrefetchStudyResult:
    """The full study: the policy table and the CLB and depth sweeps."""
    rows = []
    for program in programs:
        study = get_study(program)
        for memory in MEMORY_NAMES:
            demand_stalls = None
            for policy in FETCH_POLICIES:
                report = study.metrics(
                    _policy_config(cache_bytes, memory, policy)
                )
                stalls = report.ccrp.refill_cycles
                if policy == "demand":
                    demand_stalls = stalls
                    reduction = 0.0
                else:
                    reduction = (
                        100.0 * (1.0 - stalls / demand_stalls)
                        if demand_stalls
                        else 0.0
                    )
                rows.append(
                    PolicyRow(
                        program=program,
                        memory=memory,
                        policy=policy,
                        fetch_stalls=stalls,
                        reduction_pct=reduction,
                        relative_time=report.relative_execution_time,
                        issued=report.ccrp.prefetch_issued,
                        useful=report.ccrp.prefetch_useful,
                        useless=report.ccrp.prefetch_useless,
                        partial=report.ccrp.prefetch_partial,
                        covered_cycles=report.ccrp.covered_stall_cycles,
                        wasted_bytes=report.ccrp.wasted_traffic_bytes,
                    )
                )

    sweep_study = get_study(sweep_program)
    clb_sweep = []
    for entries in clb_sizes:
        demand = sweep_study.metrics(
            _policy_config(cache_bytes, "sc_dram", "demand", clb_entries=entries)
        ).ccrp.refill_cycles
        for policy in ("nextline", "btb"):
            stalls = sweep_study.metrics(
                _policy_config(cache_bytes, "sc_dram", policy, clb_entries=entries)
            ).ccrp.refill_cycles
            clb_sweep.append(
                SweepRow(
                    parameter=entries,
                    policy=policy,
                    fetch_stalls=stalls,
                    reduction_pct=100.0 * (1.0 - stalls / demand) if demand else 0.0,
                )
            )
    depth_sweep = []
    demand = sweep_study.metrics(
        _policy_config(cache_bytes, "sc_dram", "demand")
    ).ccrp.refill_cycles
    for depth in depths:
        for policy in ("nextline", "btb"):
            stalls = sweep_study.metrics(
                _policy_config(cache_bytes, "sc_dram", policy, prefetch_depth=depth)
            ).ccrp.refill_cycles
            depth_sweep.append(
                SweepRow(
                    parameter=depth,
                    policy=policy,
                    fetch_stalls=stalls,
                    reduction_pct=100.0 * (1.0 - stalls / demand) if demand else 0.0,
                )
            )

    return PrefetchStudyResult(
        rows=tuple(rows),
        clb_sweep=tuple(clb_sweep),
        depth_sweep=tuple(depth_sweep),
        cache_bytes=cache_bytes,
        sweep_program=sweep_program,
    )

