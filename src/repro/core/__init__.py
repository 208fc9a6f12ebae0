"""The CCRP trace-driven system simulator (the paper's Section 4 tool).

This package combines every substrate into the experiment the paper runs:
execute a workload, feed its instruction trace through a direct-mapped
cache, and price the misses under two machines — a standard RISC system
and a CCRP with a code-expanding cache — across the three embedded memory
models.

High-level use::

    from repro import core

    report = core.compare("espresso", core.SystemConfig(cache_bytes=1024,
                                                        memory="burst_eprom"))
    print(report.relative_execution_time, report.miss_rate)
"""

from repro.core.artifacts import ArtifactCache, get_cache, get_study, set_cache_enabled
from repro.core.config import SystemConfig
from repro.core.metrics import METRICS, MetricsRegistry
from repro.core.performance import ComparisonReport, SystemMetrics
from repro.core.standard import standard_code
from repro.core.study import ProgramStudy, compare

__all__ = [
    "ArtifactCache",
    "ComparisonReport",
    "METRICS",
    "MetricsRegistry",
    "ProgramStudy",
    "SystemConfig",
    "SystemMetrics",
    "compare",
    "get_cache",
    "get_study",
    "set_cache_enabled",
    "standard_code",
]
