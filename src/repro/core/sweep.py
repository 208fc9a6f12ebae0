"""Structured design-space sweeps.

The paper's evaluation is a grid: programs x cache sizes x memory models
x CLB sizes x data-cache miss rates.  :func:`sweep` runs any sub-grid of
that space through one cached :class:`~repro.core.study.ProgramStudy` and
returns the reports in a form that is easy to filter, rank, and export —
the API equivalent of "this could be determined at development time".

Sweeps degrade gracefully: each grid point is attempted independently
with a bounded retry, a failing point becomes a structured
:class:`FailureReport` on the returned :class:`SweepResult` (annotated
with the workload and grid coordinates), and every other point's report
survives.  Pass ``strict=True`` to restore fail-fast: the first
unrecoverable task re-raises, annotated with the failing workload.

``jobs=N`` in :func:`sweep_many` fans whole workloads across a process
pool; each workload's grid points run in one process, on one study.
"""

from __future__ import annotations

import csv
import traceback
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.cache.datacache import DataCacheModel
from repro.ccrp.decoder import DecoderModel
from repro.core import artifacts
from repro.core.config import SystemConfig
from repro.core.metrics import METRICS
from repro.core.performance import ComparisonReport
from repro.core.pool import FailureReport, effective_jobs, pool_context
from repro.core.study import ProgramStudy
from repro.errors import ReproError
from repro.workloads.suite import Workload

#: Columns written by :meth:`SweepResult.to_csv`, in order.
CSV_COLUMNS = (
    "program",
    "memory",
    "cache_bytes",
    "clb_entries",
    "data_cache_miss_rate",
    "miss_rate",
    "relative_execution_time",
    "memory_traffic_ratio",
    "compression_ratio",
)

#: Default bounded retry per failing grid point / workload.
DEFAULT_RETRIES = 1

#: Default sweep axes.
DEFAULT_CACHE_SIZES = (256, 512, 1024, 2048, 4096)
DEFAULT_MEMORIES = ("eprom", "burst_eprom", "sc_dram")
DEFAULT_CLB_ENTRIES = (16,)
DEFAULT_DATA_MISS_RATES = (1.0,)


def _config_detail(config: SystemConfig) -> str:
    """Compact grid coordinates for failure attribution."""
    memory = getattr(config.memory, "name", config.memory)
    return (
        f"{memory}/{config.cache_bytes}B/clb{config.clb_entries}"
        f"/dmiss{config.data_cache.miss_rate:g}"
    )


def _annotate(error: BaseException, context: str) -> BaseException:
    """A copy of ``error`` whose message leads with ``context``.

    Keeps the original exception class when it can be rebuilt from a
    single message (every :class:`~repro.errors.ReproError` can), so
    ``except LATError`` style handling still works in strict mode; falls
    back to :class:`~repro.errors.ReproError` otherwise.
    """
    try:
        clone = type(error)(f"{context}: {error}")
    except Exception:
        clone = ReproError(f"{context}: {error}")
    return clone


@dataclass(frozen=True)
class SweepResult:
    """All comparison reports from one sweep, plus any captured failures."""

    reports: tuple[ComparisonReport, ...]
    failures: tuple[FailureReport, ...] = ()

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def ok(self) -> bool:
        """True when every task of the sweep produced a report."""
        return not self.failures

    def filter(self, **criteria) -> "SweepResult":
        """Keep reports whose attributes equal the given values, e.g.
        ``result.filter(memory="eprom", cache_bytes=1024)``."""
        kept = [
            report
            for report in self.reports
            if all(getattr(report, key) == value for key, value in criteria.items())
        ]
        return SweepResult(reports=tuple(kept), failures=self.failures)

    def best(self) -> ComparisonReport:
        """The configuration with the lowest relative execution time."""
        if not self.reports:
            raise ValueError("empty sweep")
        return min(self.reports, key=lambda report: report.relative_execution_time)

    def worst(self) -> ComparisonReport:
        """The configuration where the CCRP costs the most time."""
        if not self.reports:
            raise ValueError("empty sweep")
        return max(self.reports, key=lambda report: report.relative_execution_time)

    def rows(self) -> list[dict[str, object]]:
        """One flat dict per report, keyed by :data:`CSV_COLUMNS`."""
        return [
            {
                "program": report.program,
                "memory": report.memory,
                "cache_bytes": report.cache_bytes,
                "clb_entries": report.clb_entries,
                "data_cache_miss_rate": report.data_cache_miss_rate,
                "miss_rate": report.miss_rate,
                "relative_execution_time": report.relative_execution_time,
                "memory_traffic_ratio": report.memory_traffic_ratio,
                "compression_ratio": report.compression_ratio,
            }
            for report in self.reports
        ]

    def to_csv(self, path: str | Path) -> Path:
        """Write the sweep as CSV; returns the path written."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows())
        return path


def _grid(
    cache_sizes: Sequence[int],
    memories: Sequence[str],
    clb_entries: Sequence[int],
    data_miss_rates: Sequence[float],
    decoder: DecoderModel,
) -> list[SystemConfig]:
    """The cross product, in the fixed memory/cache/CLB/miss-rate order."""
    return [
        SystemConfig(
            cache_bytes=cache_bytes,
            memory=memory,
            clb_entries=entries,
            decoder=decoder,
            data_cache=DataCacheModel(miss_rate=miss_rate),
        )
        for memory in memories
        for cache_bytes in cache_sizes
        for entries in clb_entries
        for miss_rate in data_miss_rates
    ]


# ----------------------------------------------------------------------
# The sweeps
# ----------------------------------------------------------------------


def sweep(
    workload: str | Workload,
    cache_sizes: Sequence[int] = DEFAULT_CACHE_SIZES,
    memories: Sequence[str] = DEFAULT_MEMORIES,
    clb_entries: Sequence[int] = DEFAULT_CLB_ENTRIES,
    data_miss_rates: Sequence[float] = DEFAULT_DATA_MISS_RATES,
    decoder: DecoderModel | None = None,
    study: ProgramStudy | None = None,
    strict: bool = False,
    retries: int = DEFAULT_RETRIES,
) -> SweepResult:
    """Run the full cross product of the given parameter axes.

    Args:
        workload: Suite name or :class:`Workload` instance.
        cache_sizes: Instruction-cache sizes to simulate.
        memories: Memory-model names.
        clb_entries: CLB capacities.
        data_miss_rates: Data-cache miss rates for the analytic model.
        decoder: Decoder model override (defaults to the paper's).
        study: Reuse an existing study (e.g. with a custom code).
        strict: Re-raise the first unrecoverable task error (annotated
            with the workload name) instead of recording a
            :class:`FailureReport` and returning partial results.
        retries: Bounded re-attempts per failing task before giving up.
    """
    decoder = decoder or DecoderModel()
    configs = _grid(cache_sizes, memories, clb_entries, data_miss_rates, decoder)
    workload_name = workload if isinstance(workload, str) else workload.name
    failures: list[FailureReport] = []
    reports: list[ComparisonReport] = []

    local_study = study
    build_error: BaseException | None = None
    if local_study is None:
        try:
            local_study = (
                artifacts.get_study(workload)
                if isinstance(workload, str)
                else ProgramStudy(workload)
            )
        except Exception as error:
            build_error = error
    if local_study is None:
        # The study itself cannot be built (unknown workload, assembler
        # failure...): every grid point fails at once.
        context = f"workload {workload_name!r} (study build)"
        if strict:
            raise _annotate(build_error, context) from build_error
        METRICS.count("sweep.failures")
        return SweepResult(
            reports=(),
            failures=(
                FailureReport(
                    workload=workload_name,
                    detail=f"study build ({len(configs)} grid points)",
                    error_type=type(build_error).__name__,
                    message=str(build_error),
                    attempts=1,
                ),
            ),
        )

    for config in configs:
        for attempt in range(1 + max(retries, 0)):
            if attempt:
                METRICS.count("sweep.retries")
            try:
                reports.append(local_study.metrics(config))
                break
            except Exception as caught:
                error, tb = caught, traceback.format_exc()
        else:
            detail = _config_detail(config)
            if strict:
                raise _annotate(error, f"workload {workload_name!r} at {detail}") from error
            METRICS.count("sweep.failures")
            failures.append(
                FailureReport(
                    workload=workload_name,
                    detail=detail,
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=attempt + 1,
                    traceback=tb,
                )
            )
    return SweepResult(reports=tuple(reports), failures=tuple(failures))


def _sweep_one(workload: str, axes: dict) -> tuple[tuple[ComparisonReport, ...], tuple[FailureReport, ...]]:
    """Worker entry point for :func:`sweep_many`."""
    result = sweep(workload, **axes)
    return result.reports, result.failures


def _recover_workload(
    workload: str, axes: dict, retries: int, error: BaseException, strict: bool
) -> tuple[tuple[ComparisonReport, ...], tuple[FailureReport, ...]]:
    """Parent-side recovery after a pooled whole-workload task died.

    Re-runs the workload's sweep in this process up to ``retries`` times
    (a crashed worker cannot take the retry down with it) and returns
    its reports/failures; if every attempt fails, one
    :class:`FailureReport` records the *true* total attempt count —
    the first pooled attempt plus each re-run.
    """
    if strict:
        raise _annotate(error, f"workload {workload!r}") from error
    last_error = error
    attempts = 1
    for _ in range(retries):
        METRICS.count("sweep.retries")
        attempts += 1
        try:
            retried = sweep(workload, **axes)
        except Exception as retry_error:
            last_error = retry_error
            continue
        return retried.reports, retried.failures
    METRICS.count("sweep.failures")
    return (), (
        FailureReport(
            workload=workload,
            detail="whole-workload sweep",
            error_type=type(last_error).__name__,
            message=str(last_error),
            attempts=attempts,
        ),
    )


def sweep_many(
    workloads: Iterable[str],
    jobs: int | None = None,
    strict: bool = False,
    retries: int = DEFAULT_RETRIES,
    **axes,
) -> SweepResult:
    """Sweep several workloads and concatenate the results.

    With ``jobs`` set, whole workloads fan across a process pool (each
    worker warms up from the shared on-disk artifact cache); results are
    concatenated in the given workload order, exactly as a serial run.

    One failing workload never takes the rest of the sweep down: its
    tasks are retried (bounded by ``retries``) and then recorded as
    :class:`FailureReport` entries next to every other workload's
    completed reports.  ``strict=True`` restores fail-fast — the first
    failure re-raises, annotated with the failing workload's name.
    """
    workloads = list(workloads)
    axes = dict(axes, strict=strict, retries=retries)
    tasks = [(workload, axes) for workload in workloads]
    reports: list[ComparisonReport] = []
    failures: list[FailureReport] = []
    workers = effective_jobs(jobs, len(tasks))
    if jobs is not None:
        METRICS.gauge("sweep.workers", workers)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, mp_context=pool_context()
        ) as pool:
            futures = [
                pool.submit(_sweep_one, workload, task_axes)
                for workload, task_axes in tasks
            ]
            for (workload, task_axes), future in zip(tasks, futures):
                try:
                    chunk_reports, chunk_failures = future.result()
                except Exception as error:
                    chunk_reports, chunk_failures = _recover_workload(
                        workload, task_axes, retries, error, strict
                    )
                reports.extend(chunk_reports)
                failures.extend(chunk_failures)
    else:
        for workload, task_axes in tasks:
            result = sweep(workload, **task_axes)
            reports.extend(result.reports)
            failures.extend(result.failures)
    return SweepResult(reports=tuple(reports), failures=tuple(failures))
