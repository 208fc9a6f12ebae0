"""Vectorized replay of the prefetching fetch path over a whole trace.

Driving :class:`~repro.prefetch.engine.PrefetchingFetchUnit` one access
at a time costs a Python loop per dynamic instruction — minutes per
workload.  This module exploits the prefetch buffer's key invariant (a
buffer hit still fills the cache exactly as a demand miss would, so the
*miss stream is policy-independent*) to reduce the work to the miss
events:

1. the per-access miss mask comes from the same vectorized
   direct-mapped kernel the demand timeline uses
   (:func:`repro.pipeline.frontend.miss_mask`);
2. the shadow-clock arrival of miss *i* at access position ``p_i`` is
   ``p_i + sum(stalls before i)`` — each hit advances the clock exactly
   one cycle, so hits never need to be walked;
3. the per-miss state machine (:class:`~repro.prefetch.engine.PrefetchCore`)
   is the *same object* both backends run, so agreement with the exact
   replay reduces to the equivalence of the two clock constructions —
   which the property tests and the real-workload test in
   ``tests/test_prefetch.py`` pin byte-for-byte.

Typical miss streams are thousands of events against millions of
accesses, so the remaining Python loop is ~10³ shorter than the exact
replay's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.direct_mapped import _check_geometry
from repro.ccrp.clb import CLB
from repro.ccrp.refill import RefillEngine
from repro.memsys.models import MemoryModel, get_memory_model
from repro.pipeline.frontend import FetchUnit, miss_mask
from repro.prefetch.engine import build_core
from repro.prefetch.predictor import StaticBTB


@dataclass(frozen=True)
class FetchReplay:
    """Everything one fetch-path replay produced, backend-agnostic.

    Instances from the exact unit and the vectorized timeline compare
    equal field-for-field when the backends agree — the byte-identity
    check the tests and the prefetch study both run.

    Attributes:
        policy: Fetch policy that produced the numbers.
        accesses / misses: Fetch and cache-miss counts.
        fetch_stall_cycles: Total front-end freeze cycles.
        clb_penalty_cycles: The demand-charged LAT-read share of the
            stalls (speculative LAT reads are hidden, not freezes).
        clb_hits / clb_misses: CLB probe outcomes (demand + prefetch).
        traffic_bytes: Instruction-memory bytes fetched (blocks + LAT).
        issued / useful / useless / partial: Prefetch outcome counters
            (``issued == useful + useless + in_flight_at_exit``;
            ``partial`` is the subset of ``useful`` with a nonzero
            residual).
        in_flight_at_exit: Prefetches still buffered at end of trace.
        covered_stall_cycles: Demand-freeze cycles the prefetcher hid.
        wasted_traffic_bytes: Bytes fetched by prefetches that were
            evicted or abandoned without covering a miss.
    """

    policy: str
    accesses: int
    misses: int
    fetch_stall_cycles: int
    clb_penalty_cycles: int
    clb_hits: int
    clb_misses: int
    traffic_bytes: int
    issued: int
    useful: int
    useless: int
    partial: int
    in_flight_at_exit: int
    covered_stall_cycles: int
    wasted_traffic_bytes: int

    def prefetch_counters(self) -> dict[str, int]:
        """The prefetch counter block (for metrics reports)."""
        return {
            "issued": self.issued,
            "useful": self.useful,
            "useless": self.useless,
            "partial": self.partial,
            "in_flight_at_exit": self.in_flight_at_exit,
            "covered_stall_cycles": self.covered_stall_cycles,
            "wasted_traffic_bytes": self.wasted_traffic_bytes,
        }

    @classmethod
    def from_core(
        cls, core, accesses: int, misses: int, stalls: int
    ) -> "FetchReplay":
        """Snapshot a :class:`~repro.prefetch.engine.PrefetchCore`."""
        return cls(
            policy=core.policy,
            accesses=accesses,
            misses=misses,
            fetch_stall_cycles=stalls,
            clb_penalty_cycles=core.clb_penalty_cycles,
            clb_hits=core.clb_hits,
            clb_misses=core.clb_misses,
            traffic_bytes=core.traffic_bytes,
            issued=core.issued,
            useful=core.useful,
            useless=core.useless,
            partial=core.partial,
            in_flight_at_exit=core.in_flight_at_exit,
            covered_stall_cycles=core.covered_stall_cycles,
            wasted_traffic_bytes=core.wasted_traffic_bytes,
        )

    @classmethod
    def from_unit(cls, unit: FetchUnit, fetch_stall_cycles: int) -> "FetchReplay":
        """Snapshot a (possibly prefetching) stateful unit's statistics."""
        core = getattr(unit, "core", None)
        return cls(
            policy=core.policy if core is not None else "demand",
            accesses=unit.accesses,
            misses=unit.misses,
            fetch_stall_cycles=fetch_stall_cycles,
            clb_penalty_cycles=unit.clb_penalty_cycles,
            clb_hits=unit.clb_hits,
            clb_misses=unit.clb_misses,
            traffic_bytes=core.traffic_bytes if core is not None else 0,
            issued=core.issued if core is not None else 0,
            useful=core.useful if core is not None else 0,
            useless=core.useless if core is not None else 0,
            partial=core.partial if core is not None else 0,
            in_flight_at_exit=core.in_flight_at_exit if core is not None else 0,
            covered_stall_cycles=core.covered_stall_cycles if core is not None else 0,
            wasted_traffic_bytes=core.wasted_traffic_bytes if core is not None else 0,
        )


def simulate_fetch_stream(
    addresses: np.ndarray,
    cache_bytes: int,
    line_size: int,
    memory: MemoryModel | str,
    refill: RefillEngine | None = None,
    clb: CLB | None = None,
    policy: str = "demand",
    prefetch_depth: int = 4,
    btb: StaticBTB | None = None,
    contention: bool = False,
    prefetch_bounds: tuple[int, int] | None = None,
) -> FetchReplay:
    """Replay a whole fetch-address stream under one policy, vectorized.

    Same machine-model arguments as
    :class:`~repro.prefetch.engine.PrefetchingFetchUnit`; the result is
    byte-identical to driving that unit access-by-access over
    ``addresses``.
    """
    memory = get_memory_model(memory)
    num_sets = _check_geometry(cache_bytes, line_size)
    core = build_core(
        policy,
        prefetch_depth,
        memory,
        line_size,
        refill=refill,
        clb=clb,
        btb=btb,
        contention=contention,
        prefetch_bounds=prefetch_bounds,
    )
    addresses = np.asarray(addresses)
    accesses = len(addresses)
    if accesses == 0:
        return FetchReplay.from_core(core, accesses=0, misses=0, stalls=0)

    mask = miss_mask(addresses, cache_bytes, line_size)
    shift = line_size.bit_length() - 1
    positions = np.nonzero(mask)[0]
    miss_lines = (np.asarray(addresses, dtype=np.int64) >> shift)[positions]

    resident: list[int | None] = [None] * num_sets

    def is_resident(line: int) -> bool:
        return resident[line % num_sets] == line

    total_stall = 0
    for position, line in zip(positions.tolist(), miss_lines.tolist()):
        # Same update order as the stateful unit: the missing line is
        # resident by the time the core suppresses redundant prefetches.
        resident[line % num_sets] = line
        total_stall += core.on_miss(position + total_stall, line, is_resident)

    return FetchReplay.from_core(
        core, accesses=accesses, misses=len(positions), stalls=total_stall
    )
