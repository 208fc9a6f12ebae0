"""Instruction-cache simulation substrate.

The vectorised direct-mapped simulator (:func:`simulate_trace`) the
experiments use, the set-associative simulator of the extensions, and
the analytic data-cache model of paper Section 4.2.4
(:mod:`repro.cache.datacache`).
"""

from repro.cache.datacache import DataCacheModel
from repro.cache.direct_mapped import simulate_trace
from repro.cache.set_associative import SetAssociativeCache, simulate_trace_associative
from repro.cache.stats import CacheStats

__all__ = [
    "CacheStats",
    "DataCacheModel",
    "SetAssociativeCache",
    "simulate_trace",
    "simulate_trace_associative",
]
