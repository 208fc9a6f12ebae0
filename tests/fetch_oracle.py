"""Per-access reference replays of the fetch path and the pipeline.

The paper run reads only the vectorized replays:
:func:`~repro.prefetch.timeline.simulate_fetch_stream` walks the miss
events of a trace, and :func:`~repro.pipeline.timeline.replay_trace`
walks its basic blocks.  This module keeps the walks they are checked
against, one access or one instruction at a time, written to be
obviously complete rather than fast:

* :class:`DirectMappedCache` — the bare direct-mapped cache, one access
  at a time, against which :func:`~repro.cache.direct_mapped.simulate_trace`
  is checked;
* :class:`FetchUnit` — a direct-mapped instruction cache, an optional
  CLB and refill engine; a miss freezes the pipeline for that line's
  refill (or the standard machine's full-line burst);
* :class:`PrefetchingFetchUnit` — the same cache in front of a
  :class:`~repro.prefetch.engine.PrefetchCore`, driven by a shadow clock
  that advances one cycle per fetch plus every freeze;
  :meth:`~PrefetchingFetchUnit.fetch_stream` walks a whole trace in
  65,536-address slices;
* :func:`simulate_pipeline` — the in-order scoreboard replay of a
  dynamic instruction stream, with an optional fetch unit.

They share with ``src/`` only what both paths must agree on: the
prefetch core (through :func:`~repro.prefetch.engine.build_core`), the
scoreboard, and the critical-word refill helper.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.direct_mapped import DEFAULT_LINE_SIZE, _check_geometry
from repro.cache.stats import CacheStats
from repro.ccrp.clb import CLB
from repro.ccrp.refill import RefillEngine
from repro.errors import ConfigurationError
from repro.isa.instruction import Instruction
from repro.lat.entry import LINES_PER_ENTRY
from repro.memsys.models import MemoryModel, get_memory_model
from repro.pipeline.datapath import (
    PIPELINE_FILL_CYCLES,
    PipelineResult,
    ProgramTiming,
    Scoreboard,
)
from repro.pipeline.frontend import ccrp_critical_word_cycles
from repro.pipeline.hazards import HazardModel, R2000_HAZARDS
from repro.prefetch.engine import FetchReplay, build_core
from repro.prefetch.predictor import StaticBTB

#: Addresses :meth:`PrefetchingFetchUnit.fetch_stream` walks per slice.
STREAM_SLICE = 1 << 16


class DirectMappedCache:
    """Stateful reference model of a direct-mapped cache.

    Example::

        cache = DirectMappedCache(cache_bytes=1024)
        hit = cache.access(address)
    """

    def __init__(self, cache_bytes: int, line_size: int = DEFAULT_LINE_SIZE) -> None:
        self.num_sets = _check_geometry(cache_bytes, line_size)
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self._resident: list[int | None] = [None] * self.num_sets
        self.accesses = 0
        self.misses = 0
        self.miss_lines: list[int] = []

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on a hit."""
        line = address >> self._line_shift
        set_index = line % self.num_sets
        self.accesses += 1
        if self._resident[set_index] == line:
            return True
        self._resident[set_index] = line
        self.misses += 1
        self.miss_lines.append(line)
        return False

    def run(self, addresses) -> CacheStats:
        """Access a whole trace and return the statistics."""
        for address in addresses:
            self.access(int(address))
        return self.stats()

    def stats(self) -> CacheStats:
        return CacheStats(
            accesses=self.accesses,
            misses=self.misses,
            miss_lines=np.array(self.miss_lines, dtype=np.int64),
        )


class FetchUnit:
    """Stateful front end for the per-instruction pipeline replay.

    Args:
        cache_bytes: Instruction-cache capacity (direct-mapped).
        memory: Instruction-memory model (instance or name).
        line_size: Cache-line size in bytes.
        refill: CCRP refill engine; ``None`` models the standard
            machine's constant full-line burst.
        clb: CLB probed on every miss (CCRP only); ``None`` disables
            the LAT-read penalty (a perfect CLB).
        critical_word_first: Resume on critical-word arrival instead of
            end of line (see :mod:`repro.pipeline.frontend`).

    Attributes:
        accesses / misses: Fetch and miss counts so far.
        clb_penalty_cycles: Accumulated LAT-read freeze cycles.
    """

    def __init__(
        self,
        cache_bytes: int,
        memory: MemoryModel | str,
        line_size: int = 32,
        refill: RefillEngine | None = None,
        clb: CLB | None = None,
        critical_word_first: bool = False,
    ) -> None:
        self.num_sets = _check_geometry(cache_bytes, line_size)
        self.line_size = line_size
        self.memory = get_memory_model(memory)
        self.refill = refill
        if refill is not None and refill.image.line_size != line_size:
            raise ConfigurationError(
                f"fetch unit line size {line_size} != compressed image line "
                f"size {refill.image.line_size}"
            )
        self.clb = clb
        if clb is not None and refill is None:
            raise ConfigurationError("a CLB is meaningless without a refill engine")
        self.critical_word_first = critical_word_first
        self._line_shift = line_size.bit_length() - 1
        self._resident: list[int | None] = [None] * self.num_sets
        self._baseline_full = self.memory.bytes_read_cycles(line_size)
        self.accesses = 0
        self.misses = 0
        self.clb_penalty_cycles = 0

    def fetch(self, address: int) -> int:
        """One instruction fetch; returns the freeze cycles it caused."""
        line = address >> self._line_shift
        set_index = line % self.num_sets
        self.accesses += 1
        if self._resident[set_index] == line:
            return 0
        self._resident[set_index] = line
        self.misses += 1
        stall = 0
        if self.refill is None:
            if self.critical_word_first:
                return self.memory.first_word_cycles
            return self._baseline_full
        if self.clb is not None and not self.clb.access(line // LINES_PER_ENTRY):
            penalty = self.refill.lat_fetch_cycles
            self.clb_penalty_cycles += penalty
            stall += penalty
        line_index = (address - self.refill.image.text_base) // self.line_size
        if self.critical_word_first:
            stall += ccrp_critical_word_cycles(self.refill, np.array([address]))
        else:
            stall += int(self.refill.ccrp_line_cycles(np.array([line_index]))[0])
        return stall

    def reset(self) -> None:
        """Empty the cache (and CLB) and clear statistics."""
        self._resident = [None] * self.num_sets
        if self.clb is not None:
            self.clb.reset()
        self.accesses = 0
        self.misses = 0
        self.clb_penalty_cycles = 0

    @property
    def clb_hits(self) -> int:
        return self.clb.hits if self.clb is not None else 0

    @property
    def clb_misses(self) -> int:
        return self.clb.misses if self.clb is not None else 0

    def counters(self) -> dict[str, int]:
        """The front end's counter block."""
        return {
            "accesses": self.accesses,
            "misses": self.misses,
            "clb_hits": self.clb_hits,
            "clb_misses": self.clb_misses,
            "clb_penalty_cycles": self.clb_penalty_cycles,
        }


class PrefetchingFetchUnit(FetchUnit):
    """Stateful prefetching front end, walked one access at a time.

    Same ``fetch(address) -> freeze cycles`` contract as
    :class:`FetchUnit`; ``fetch`` and ``fetch_stream`` run one walk, so
    the cache-and-clock loop exists once.  With ``policy="demand"`` it
    must equal the plain unit.

    Args:
        cache_bytes / memory / line_size / refill / clb: As the base
            class.  ``refill=None`` models the standard machine.
        policy / prefetch_depth / btb / contention / prefetch_bounds:
            As :func:`~repro.prefetch.engine.build_core`.
    """

    def __init__(
        self,
        cache_bytes: int,
        memory: MemoryModel | str,
        line_size: int = 32,
        refill: RefillEngine | None = None,
        clb: CLB | None = None,
        policy: str = "demand",
        prefetch_depth: int = 4,
        btb: StaticBTB | None = None,
        contention: bool = False,
        prefetch_bounds: tuple[int, int] | None = None,
    ) -> None:
        super().__init__(
            cache_bytes, memory, line_size=line_size, refill=refill, clb=clb
        )
        self._core_config = dict(
            policy=policy,
            depth=prefetch_depth,
            memory=self.memory,
            line_size=line_size,
            refill=refill,
            clb=clb,
            btb=btb,
            contention=contention,
            prefetch_bounds=prefetch_bounds,
        )
        self._clock = 0
        self.core = build_core(**self._core_config)

    def _is_resident(self, line: int) -> bool:
        return self._resident[line & (self.num_sets - 1)] == line

    def fetch(self, address: int) -> int:
        """One instruction fetch; returns the freeze cycles it caused."""
        return self._walk((address >> self._line_shift,))

    def fetch_stream(self, addresses) -> int:
        """Fetch every address of a stream in order; returns the total
        freeze cycles.  Equal to summing :meth:`fetch` over the stream,
        wherever it is split."""
        addresses = np.asarray(addresses)
        stalls = 0
        # One slice's lines as Python ints; a whole trace would be ~40 MB.
        for start in range(0, len(addresses), STREAM_SLICE):
            lines = addresses[start : start + STREAM_SLICE] >> self._line_shift
            stalls += self._walk(lines.tolist())
        return stalls

    def _walk(self, lines: Sequence[int]) -> int:
        """Every access is compared with its set's tag: a hit advances the
        shadow clock one cycle; a miss fills the set, and the core
        services it at the current shadow time, which then advances by
        the IF slot plus the stall."""
        resident = self._resident
        set_mask = self.num_sets - 1
        on_miss = self.core.on_miss
        is_resident = self._is_resident
        clock = self._clock
        misses = 0
        stalls = 0
        for line in lines:
            set_index = line & set_mask
            if resident[set_index] == line:
                clock += 1
                continue
            resident[set_index] = line
            misses += 1
            stall = on_miss(clock, line, is_resident)
            stalls += stall
            clock += 1 + stall
        self._clock = clock
        self.accesses += len(lines)
        self.misses += misses
        self.clb_penalty_cycles = self.core.clb_penalty_cycles
        return stalls

    def replay(self, fetch_stall_cycles: int) -> FetchReplay:
        """The walk so far as a :class:`FetchReplay`, comparable field by
        field with the vectorized timeline's."""
        return FetchReplay.from_core(
            self.core, self.accesses, self.misses, fetch_stall_cycles
        )

    def reset(self) -> None:
        """Empty the cache, CLB and clock, and start a fresh core."""
        super().reset()
        self._clock = 0
        self.core = build_core(**self._core_config)

    def counters(self) -> dict[str, int]:
        """Front-end counters including the prefetch block."""
        report = super().counters()
        replay = self.replay(0)
        report.update(
            {f"prefetch_{key}": value for key, value in replay.prefetch_counters().items()}
        )
        report["traffic_bytes"] = replay.traffic_bytes
        return report


class _Scoreboard(Scoreboard):
    def bubble(self, cycles: int) -> None:
        """Inject ``cycles`` empty issue slots (taken-branch redirect)."""
        self._time += cycles


def simulate_pipeline(
    instructions: tuple[Instruction, ...],
    instruction_indices: np.ndarray,
    hazards: HazardModel = R2000_HAZARDS,
    frontend: FetchUnit | None = None,
    text_base: int = 0,
) -> PipelineResult:
    """Cycle-accurate replay of a dynamic instruction stream.

    Args:
        instructions: The program's static instruction list.
        instruction_indices: Static instruction index per dynamic
            instruction, in execution order.
        hazards: Interlock parameters.
        frontend: Optional :class:`FetchUnit`; when given, every access
            runs through it and misses freeze the pipeline for the
            refill cost.
        text_base: Text-segment load address (to turn indices back into
            fetch addresses for the front end).
    """
    indices = np.asarray(instruction_indices)
    if len(indices) and (indices.min() < 0 or indices.max() >= len(instructions)):
        raise ConfigurationError(
            f"trace references instruction {int(indices.max())} outside the "
            f"{len(instructions)}-instruction program"
        )
    scoreboard = _Scoreboard(ProgramTiming(instructions, hazards))
    penalty = hazards.taken_branch_penalty

    hazard_stalls = 0
    branch_stalls = 0
    fetch_stalls = 0
    previous = None
    for index in indices.tolist():
        if previous is not None and index != previous + 1:
            branch_stalls += penalty
            scoreboard.bubble(penalty)
        if frontend is not None:
            fetch_stalls += frontend.fetch(text_base + 4 * index)
        hazard_stalls += scoreboard.issue(index)
        previous = index

    issue = len(indices)
    return PipelineResult(
        issue_cycles=issue,
        fill_cycles=PIPELINE_FILL_CYCLES if issue else 0,
        hazard_stall_cycles=hazard_stalls,
        branch_stall_cycles=branch_stalls,
        fetch_stall_cycles=fetch_stalls,
        clb_penalty_cycles=frontend.clb_penalty_cycles if frontend is not None else 0,
        fetch_misses=frontend.misses if frontend is not None else 0,
    )
