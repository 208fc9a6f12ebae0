"""Direct-mapped instruction-cache simulation.

The paper's proposed implementation is a direct-mapped, 32-byte-line
on-chip cache of 256-4096 bytes (Section 3.1).  Crucially, the *miss
stream is identical* for the baseline RISC and the CCRP — compression is
transparent to addressing — so one simulation serves both machines and
only refill timing differs.

:func:`simulate_trace` is built on the per-access :func:`miss_mask`.  A
direct-mapped cache hits exactly when the previous access to the same set
touched the same line, so misses can be computed with one stable sort by
set index followed by a neighbour comparison: O(n log n) in numpy instead
of an interpreted loop per access.  Property-based tests check it against
the stateful per-access reference in ``tests/fetch_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.cache.stats import CacheStats

DEFAULT_LINE_SIZE = 32


def _check_geometry(cache_bytes: int, line_size: int) -> int:
    if line_size <= 0 or line_size & (line_size - 1):
        raise ConfigurationError(f"line size {line_size} is not a power of two")
    if cache_bytes < line_size or cache_bytes % line_size:
        raise ConfigurationError(
            f"cache size {cache_bytes} is not a positive multiple of line size {line_size}"
        )
    num_sets = cache_bytes // line_size
    if num_sets & (num_sets - 1):
        raise ConfigurationError(f"number of sets {num_sets} is not a power of two")
    return num_sets


def miss_mask(
    addresses: np.ndarray, cache_bytes: int, line_size: int = DEFAULT_LINE_SIZE
) -> np.ndarray:
    """Per-access miss flags of a direct-mapped cache, vectorised.

    A boolean per *access*, so miss events keep their position (and
    therefore their address) in the stream; :func:`simulate_trace` and
    :func:`repro.pipeline.frontend.miss_events` both read it.
    """
    num_sets = _check_geometry(cache_bytes, line_size)
    if len(addresses) == 0:
        return np.zeros(0, dtype=bool)
    lines = np.asarray(addresses, dtype=np.int64) >> (line_size.bit_length() - 1)

    # Runs of accesses to the same line always hit after the first access,
    # whatever the geometry; collapse them first (instruction fetch is
    # mostly sequential, so this shrinks the trace ~8x).
    keep = np.empty(len(lines), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    event_positions = np.nonzero(keep)[0]
    events = lines[event_positions]

    sets = events & (num_sets - 1)
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = events[order]
    miss_sorted = np.empty(len(events), dtype=bool)
    miss_sorted[0] = True
    miss_sorted[1:] = (sorted_sets[1:] != sorted_sets[:-1]) | (
        sorted_lines[1:] != sorted_lines[:-1]
    )
    miss_events = np.empty(len(events), dtype=bool)
    miss_events[order] = miss_sorted

    mask = np.zeros(len(lines), dtype=bool)
    mask[event_positions[miss_events]] = True
    return mask


def simulate_trace(
    addresses: np.ndarray,
    cache_bytes: int,
    line_size: int = DEFAULT_LINE_SIZE,
) -> CacheStats:
    """Vectorised direct-mapped simulation of an address trace.

    Args:
        addresses: Byte addresses in access order (any integer dtype).
        cache_bytes: Total cache capacity.
        line_size: Line size in bytes.

    Returns:
        The same :class:`CacheStats` the reference model produces.
    """
    addresses = np.asarray(addresses)
    mask = miss_mask(addresses, cache_bytes, line_size)
    miss_lines = addresses[mask].astype(np.int64) >> (line_size.bit_length() - 1)
    return CacheStats(
        accesses=len(addresses), misses=len(miss_lines), miss_lines=miss_lines
    )
