"""Vectorized replay of the prefetching fetch path over a whole trace.

Walking the prefetching front end one access at a time (the reference
walk in ``tests/fetch_oracle.py``) costs a Python loop per dynamic
instruction.  This module exploits the prefetch buffer's key invariant (a
buffer hit still fills the cache exactly as a demand miss would, so the
*miss stream is policy-independent*) to reduce the work to the miss
events:

1. the miss events (position and line of every miss) come from the
   same vectorized direct-mapped kernel the demand timeline uses
   (:func:`repro.pipeline.frontend.miss_events`), once per stream and
   geometry: every policy replays the same events;
2. the shadow-clock arrival of miss *i* at access position ``p_i`` is
   ``p_i + sum(stalls before i)`` — each hit advances the clock exactly
   one cycle, so hits never need to be walked;
3. the per-miss state machine (:class:`~repro.prefetch.engine.PrefetchCore`)
   is the one the reference walk drives too, so agreement with it
   reduces to the equivalence of the two clock constructions — which
   the property tests and the full-trace tests in
   ``tests/test_prefetch.py`` pin field for field.

Typical miss streams are thousands of events against millions of
accesses, so the remaining Python loop is ~10³ shorter than a
per-access walk.
"""

from __future__ import annotations


import numpy as np

from repro.cache.direct_mapped import _check_geometry
from repro.ccrp.clb import CLB
from repro.ccrp.refill import RefillEngine
from repro.errors import ConfigurationError
from repro.memsys.models import MemoryModel, get_memory_model
from repro.pipeline.frontend import MissEvents, miss_events
from repro.prefetch.engine import FetchReplay, build_core
from repro.prefetch.predictor import StaticBTB


def simulate_fetch_stream(
    addresses: np.ndarray | MissEvents,
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
    :func:`~repro.prefetch.engine.build_core`; the result equals a
    per-access walk of the same core over ``addresses``.  The replay runs over the stream's miss events, so a
    caller replaying one stream under many policies may pass its
    :class:`~repro.pipeline.frontend.MissEvents` (extracted once for
    this geometry) in place of the addresses.
    """
    memory = get_memory_model(memory)
    num_sets = _check_geometry(cache_bytes, line_size)
    if isinstance(addresses, MissEvents):
        events = addresses
        if (events.cache_bytes, events.line_size) != (cache_bytes, line_size):
            raise ConfigurationError(
                f"miss events of a {events.cache_bytes} B cache with "
                f"{events.line_size} B lines replayed as {cache_bytes} B / "
                f"{line_size} B"
            )
    else:
        events = miss_events(addresses, cache_bytes, line_size)
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

    resident: list[int | None] = [None] * num_sets

    def is_resident(line: int) -> bool:
        return resident[line % num_sets] == line

    on_miss = core.on_miss
    total_stall = 0
    for position, line in zip(events.positions.tolist(), events.lines.tolist()):
        # Same update order as a per-access walk: the missing line is
        # resident by the time the core suppresses redundant prefetches.
        resident[line % num_sets] = line
        total_stall += on_miss(position + total_stall, line, is_resident)

    return FetchReplay.from_core(
        core,
        accesses=events.accesses,
        misses=len(events.positions),
        stalls=total_stall,
    )
