"""The pipeline's fetch unit: instruction cache + CLB + refill engine.

:class:`FetchUnit` is the stateful front end the exact datapath replay
drives one access at a time: a hit costs nothing, a miss freezes the
pipeline for the *per-line* refill cost — the CCRP's decoder timing for
that specific compressed block (plus a LAT-entry read when the CLB
misses), or the baseline machine's constant burst.  The vectorized
helpers compute the same quantities over whole miss streams for the
timeline backend.

Critical-word-first (modelled extension)
----------------------------------------

With ``critical_word_first=True`` the pipeline resumes as soon as the
*requested* word is available instead of waiting for the whole line:

* baseline — the memory bursts starting at the critical word
  (wrap-around order), so the stall is ``first_word_cycles``;
* CCRP — the Huffman decoder is strictly sequential from the block
  start, so the stall is the full-line refill scaled to the critical
  word's position: ``ceil(full * (word + 1) / words_per_line)``.

Both sides still fetch (and account traffic for) the full line; bus
contention from the tail of the burst is ignored, matching the paper's
single-outstanding-miss simplification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.direct_mapped import _check_geometry, miss_mask
from repro.cache.stats import CacheStats
from repro.ccrp.clb import CLB
from repro.ccrp.refill import RefillEngine
from repro.errors import ConfigurationError
from repro.lat.entry import LINES_PER_ENTRY
from repro.memsys.models import MemoryModel, get_memory_model


@dataclass(frozen=True)
class MissEvents:
    """The misses of one fetch stream on one direct-mapped cache geometry.

    Policy-independent (a prefetch-buffer hit still fills the cache), so
    one set of events serves every prefetch replay of that geometry.

    Attributes:
        accesses: Length of the fetch stream.
        positions: Access position of every miss, in occurrence order.
        lines: Global line number of every miss (``int64``).
        cache_bytes / line_size: The geometry the events belong to.
    """

    accesses: int
    positions: np.ndarray
    lines: np.ndarray
    cache_bytes: int
    line_size: int

    def cache_stats(self) -> CacheStats:
        """The events as the miss statistics of their geometry."""
        return CacheStats(
            accesses=self.accesses, misses=len(self.lines), miss_lines=self.lines
        )


def miss_events(
    addresses: np.ndarray, cache_bytes: int, line_size: int = 32
) -> MissEvents:
    """Extract the :class:`MissEvents` of a fetch-address stream."""
    addresses = np.asarray(addresses)
    positions = np.nonzero(miss_mask(addresses, cache_bytes, line_size))[0]
    lines = addresses[positions].astype(np.int64) >> (line_size.bit_length() - 1)
    return MissEvents(len(addresses), positions, lines, cache_bytes, line_size)


def baseline_critical_word_cycles(memory: MemoryModel, miss_count: int) -> int:
    """Baseline refill stalls with wrap-around critical-word-first."""
    return miss_count * memory.first_word_cycles


def ccrp_critical_word_cycles(
    engine: RefillEngine, miss_addresses: np.ndarray
) -> int:
    """CCRP refill stalls with sequential decode-to-the-critical-word.

    ``miss_addresses`` are the byte addresses whose fetches missed; the
    per-line full refill cost is scaled linearly to the critical word's
    position in the line (the decoder emits bytes in order).
    """
    if len(miss_addresses) == 0:
        return 0
    addresses = np.asarray(miss_addresses, dtype=np.int64)
    line_size = engine.image.line_size
    words_per_line = line_size // 4
    line_indices = (addresses - engine.image.text_base) // line_size
    full = engine.ccrp_line_cycles(line_indices)
    word = (addresses % line_size) // 4
    return int(((full * (word + 1) + words_per_line - 1) // words_per_line).sum())


class FetchUnit:
    """Stateful front end for the exact pipeline replay.

    Args:
        cache_bytes: Instruction-cache capacity (direct-mapped).
        memory: Instruction-memory model (instance or name).
        line_size: Cache-line size in bytes.
        refill: CCRP refill engine; ``None`` models the standard
            machine's constant full-line burst.
        clb: CLB probed on every miss (CCRP only); ``None`` disables
            the LAT-read penalty (a perfect CLB).
        critical_word_first: Resume on critical-word arrival instead of
            end of line (see module docstring).

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

    # ------------------------------------------------------------------
    # Counter surface (no private attribute poking required)
    # ------------------------------------------------------------------

    @property
    def clb_hits(self) -> int:
        """CLB hits so far (0 without a CLB)."""
        return self.clb.hits if self.clb is not None else 0

    @property
    def clb_misses(self) -> int:
        """CLB misses so far (0 without a CLB)."""
        return self.clb.misses if self.clb is not None else 0

    def counters(self) -> dict[str, int]:
        """The front end's counter block, for ``--metrics`` reports and
        the service ``stats`` op (prefetching subclasses extend it)."""
        return {
            "accesses": self.accesses,
            "misses": self.misses,
            "clb_hits": self.clb_hits,
            "clb_misses": self.clb_misses,
            "clb_penalty_cycles": self.clb_penalty_cycles,
        }
