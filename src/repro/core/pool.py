"""Worker-pool helpers shared by the sweeps, the experiment runner and the
service.

* :func:`available_cpus` and :func:`effective_jobs` size a pool from the
  CPUs this process may actually use;
* :func:`pool_context` picks the warm-start multiprocessing context;
* :class:`FailureReport` is the structured record of one task a pool (or
  a serial loop) could not complete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class FailureReport:
    """One task a pool (or a serial loop) could not complete, with full
    attribution.

    Attributes:
        workload: Name of the workload whose task failed.
        detail: Which grid point (or stage) failed, human-readable.
        error_type: Exception class name.
        message: Exception message.
        attempts: Total attempts made (1 + retries).
        traceback: Formatted traceback of the last attempt, when one was
            captured (worker-side tracebacks travel back as strings).
    """

    workload: str
    detail: str
    error_type: str
    message: str
    attempts: int
    traceback: str = ""

    def render(self) -> str:
        """One-line summary for CLI output and logs."""
        return (
            f"{self.workload} [{self.detail}]: {self.error_type}: "
            f"{self.message} (after {self.attempts} attempt"
            f"{'s' if self.attempts != 1 else ''})"
        )


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, which overreports inside
    cgroup- or affinity-limited containers (a CI runner pinned to one
    core still "has" 64 CPUs).  The scheduler affinity mask is the
    honest bound where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    count = os.cpu_count()
    return count if count else 1


def effective_jobs(jobs: int | None, tasks: int) -> int:
    """Worker processes actually worth spawning for ``tasks`` tasks.

    Clamps the requested count to the task count and to
    :func:`available_cpus` — extra workers past either bound only add
    process start-up and scheduling cost.  ``None`` and any result of 1
    mean "run serial, no pool".
    """
    if jobs is None or tasks <= 0:
        return 1
    return max(1, min(jobs, tasks, available_cpus()))


def pool_context():
    """The warm-start multiprocessing context of every process pool.

    Prefers ``fork`` so workers inherit the parent's pre-warmed study
    LRU copy-on-write (no per-worker rebuild, not even a disk load),
    then ``forkserver``, then the platform default.
    """
    import multiprocessing  # serial runs never load the pool modules

    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "forkserver"):
        if method in methods:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX
