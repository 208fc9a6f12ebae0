"""Percentiles for latency samples.

Two rules from the benchmark's reporting discipline live here:

* percentiles are nearest-rank on the sorted samples, so every reported
  latency is one that was actually observed;
* a tail percentile is only reportable when at least ``MIN_BEYOND``
  samples lie strictly beyond it -- p99 needs 1000 samples, p90 needs
  100.  :func:`tail_fraction` gives the highest such percentile for a
  sample count.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``fraction`` at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count))


def tail_fraction(count: int, candidates=(0.999, 0.99, 0.95, 0.9, 0.75, 0.5)) -> float | None:
    """Highest candidate percentile with at least :data:`MIN_BEYOND` samples beyond it."""
    for fraction in candidates:
        if samples_beyond(count, fraction) >= MIN_BEYOND:
            return fraction
    return None
