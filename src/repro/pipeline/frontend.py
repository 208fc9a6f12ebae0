"""The pipeline's fetch path: instruction-cache misses and their refills.

A hit costs nothing; a miss freezes the pipeline for the *per-line*
refill cost — the CCRP's decoder timing for that specific compressed
block (plus a LAT-entry read when the CLB misses), or the baseline
machine's constant burst.  These helpers compute those quantities over
whole miss streams for the timeline backend.

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

from repro.cache.direct_mapped import miss_mask
from repro.cache.stats import CacheStats
from repro.ccrp.refill import RefillEngine
from repro.memsys.models import MemoryModel


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
