"""Extension experiments: the paper's Section 5 proposals, implemented.

* **Multiple preselected codes** — "to preselect multiple codes and to
  use the one that provides the best compression for each instruction
  block": sweep 1/2/4 trained codes over the Figure 5 corpus.
* **Associativity** — the paper attributes espresso's penalty to a small
  direct-mapped cache; quantify how much associativity (a "different
  parameter chosen for this program") recovers.
* **Compressed demand paging** — "similar methods for demand-paged
  virtual memory": storage and fault-service comparison per memory model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.direct_mapped import simulate_trace
from repro.cache.set_associative import simulate_trace_associative
from repro.ccrp.paging import CompressedPageStore, PagedMemorySimulator
from repro.compression.multicode import MultiCodeCompressor, train_code_set
from repro.core.artifacts import get_study
from repro.core.standard import standard_code
from repro.experiments.formats import percent, render_table
from repro.workloads.suite import load, load_figure5_corpus


@dataclass(frozen=True)
class MultiCodeRow:
    code_count: int
    compressed_ratio: float  # corpus-weighted, tags included


@dataclass(frozen=True)
class AssociativityRow:
    program: str
    cache_bytes: int
    miss_direct: float
    miss_2way: float
    miss_4way: float


@dataclass(frozen=True)
class PagingRow:
    memory: str
    faults: int
    compressed_fault_cycles: int
    baseline_fault_cycles: int
    storage_ratio: float


@dataclass(frozen=True)
class ExtensionsResult:
    multicode_rows: tuple[MultiCodeRow, ...]
    associativity_rows: tuple[AssociativityRow, ...]
    paging_rows: tuple[PagingRow, ...]

    def render(self) -> str:
        parts = [
            render_table(
                "Extension A: multiple preselected codes (corpus-weighted size)",
                ("Codes", "Compressed size (tags incl.)"),
                [
                    (row.code_count, percent(row.compressed_ratio, 1))
                    for row in self.multicode_rows
                ],
            ),
            render_table(
                "Extension B: associativity vs espresso's conflict misses",
                ("Program", "Cache", "Direct", "2-way", "4-way"),
                [
                    (
                        row.program,
                        f"{row.cache_bytes} byte",
                        percent(row.miss_direct),
                        percent(row.miss_2way),
                        percent(row.miss_4way),
                    )
                    for row in self.associativity_rows
                ],
            ),
            render_table(
                "Extension C: compressed demand paging (espresso, 16 frames of 1 KB)",
                ("Memory", "Faults", "Fault cycles (CCRP)", "Fault cycles (std)", "Storage"),
                [
                    (
                        row.memory,
                        row.faults,
                        row.compressed_fault_cycles,
                        row.baseline_fault_cycles,
                        percent(row.storage_ratio, 1),
                    )
                    for row in self.paging_rows
                ],
            ),
        ]
        return "\n\n".join(parts)


def run_multicode(texts: list[bytes]) -> tuple[MultiCodeRow, ...]:
    """Extension A: 1, 2 and 4 codes trained on ``texts``, sized without encoding."""
    rows = []
    total_original = sum(len(text) for text in texts)
    for code_count in (1, 2, 4):
        codes = train_code_set(texts, code_count=code_count, refinement_rounds=2)
        compressor = MultiCodeCompressor(codes)
        total = sum(compressor.compressed_size(text) for text in texts)
        rows.append(MultiCodeRow(code_count=code_count, compressed_ratio=total / total_original))
    return tuple(rows)


def run_extensions() -> ExtensionsResult:
    """Run all three extension studies."""
    multicode_rows = run_multicode(list(load_figure5_corpus().values()))

    # --- Extension B: associativity -------------------------------------
    # Traces come from the studies the tables share (in memory or on disk),
    # so a warm run executes nothing.
    associativity_rows = []
    for program in ("espresso", "nasa7"):
        trace = get_study(program).execution.trace.addresses
        for cache_bytes in (512, 1024, 4096):
            associativity_rows.append(
                AssociativityRow(
                    program=program,
                    cache_bytes=cache_bytes,
                    miss_direct=simulate_trace(trace, cache_bytes).miss_rate,
                    miss_2way=simulate_trace_associative(
                        trace, cache_bytes, ways=2
                    ).miss_rate,
                    miss_4way=simulate_trace_associative(
                        trace, cache_bytes, ways=4
                    ).miss_rate,
                )
            )

    # --- Extension C: compressed demand paging ---------------------------
    store = CompressedPageStore(load("espresso").text, standard_code())
    addresses = get_study("espresso").execution.trace.addresses
    paging_rows = []
    for memory in ("eprom", "burst_eprom", "sc_dram"):
        simulator = PagedMemorySimulator(store, frames=16, memory=memory)
        compressed, baseline = simulator.compare(addresses)
        paging_rows.append(
            PagingRow(
                memory=memory,
                faults=compressed.faults,
                compressed_fault_cycles=compressed.fault_cycles,
                baseline_fault_cycles=baseline.fault_cycles,
                storage_ratio=compressed.storage_bytes / baseline.storage_bytes,
            )
        )

    return ExtensionsResult(
        multicode_rows=multicode_rows,
        associativity_rows=tuple(associativity_rows),
        paging_rows=tuple(paging_rows),
    )
