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

Sweeps also **scale out** along two axes:

* ``jobs=N`` fans grid points (or whole workloads, in
  :func:`sweep_many`) across a process pool.  The parent builds the
  study *once* before spawning — the single-flight pre-warm — so cold
  workers inherit it (``fork`` start method) or load it from the disk
  artifact cache instead of N workers re-simulating the same study.
* ``shard=(i, n)`` runs only the i-th of ``n`` contiguous slices of the
  task list, so one sweep can split across machines.  Reassembling the
  shard results in partition order with :func:`merge_shards` (or shard
  files with :func:`merge_shard_files`) is byte-identical — reports
  *and* failures — to the unsharded run.
"""

from __future__ import annotations

import csv
import os
import pickle
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
from repro.core.study import ProgramStudy
from repro.errors import ConfigurationError, ReproError
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

#: Default sweep axes (also the grid shape :func:`sweep_many` shards over).
DEFAULT_CACHE_SIZES = (256, 512, 1024, 2048, 4096)
DEFAULT_MEMORIES = ("eprom", "burst_eprom", "sc_dram")
DEFAULT_CLB_ENTRIES = (16,)
DEFAULT_DATA_MISS_RATES = (1.0,)

#: Version tag of the shard files written by ``ccrp-sweep --emit-shard``.
SHARD_SCHEMA = "ccrp-sweep-shard/1"


@dataclass(frozen=True)
class FailureReport:
    """One task the sweep could not complete, with full attribution.

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
# Worker-pool plumbing
# ----------------------------------------------------------------------


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


def _pool_context():
    """The warm-start multiprocessing context sweep pools run under.

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


def _metrics_chunk(workload: str, configs: Sequence[SystemConfig]) -> tuple:
    """Worker entry point: study via the shared caches, then the chunk.

    The parent pre-warmed the study before spawning, so this either
    inherits it outright (``fork``) or deserialises the pieces from the
    disk artifact cache — never re-simulates.

    Exceptions are captured *per grid point* — one bad configuration
    never discards the rest of the chunk — and travel back as
    ``("err", type, message, traceback)`` tuples (tracebacks do not
    pickle) for the parent to retry or report.  Returns
    ``(outcomes, metrics_snapshot)`` so the parent can merge this
    chunk's cache counters into its own registry.
    """
    METRICS.reset()
    study = artifacts.get_study(workload)
    outcomes: list[tuple] = []
    for config in configs:
        try:
            outcomes.append(("ok", study.metrics(config)))
        except Exception as error:
            outcomes.append(
                ("err", type(error).__name__, str(error), traceback.format_exc())
            )
    return outcomes, METRICS.snapshot()


def _retry_config(
    workload: str | Workload,
    config: SystemConfig,
    study: ProgramStudy | None,
    retries: int,
) -> tuple[ComparisonReport | None, BaseException | None, int]:
    """Re-attempt one failed grid point up to ``retries`` times.

    Returns ``(report, last_error, extra_attempts)``; the retry runs in
    the calling process so a crashed or wedged worker cannot take the
    retry down with it.
    """
    last_error: BaseException | None = None
    for attempt in range(retries):
        METRICS.count("sweep.retries")
        try:
            if study is None:
                study = (
                    artifacts.get_study(workload)
                    if isinstance(workload, str)
                    else ProgramStudy(workload)
                )
            return study.metrics(config), None, attempt + 1
        except Exception as error:
            last_error = error
    return None, last_error, retries


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------


def shard_span(total: int, shard: Sequence[int]) -> tuple[int, int]:
    """The contiguous ``[start, stop)`` slice of shard ``(index, count)``.

    Tasks are split as evenly as possible (sizes differ by at most one)
    and the ``count`` slices cover ``range(total)`` exactly, so running
    every shard and concatenating in index order reproduces the
    unsharded task list.
    """
    try:
        index, count = shard
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"shard must be an (index, count) pair, got {shard!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(f"shard count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index must be in [0, {count}), got {index}"
        )
    return (total * index) // count, (total * (index + 1)) // count


def merge_shards(shards: Iterable[SweepResult]) -> SweepResult:
    """Reassemble shard results, given in partition order (shard 0 first).

    Because shards are contiguous slices of the task list and a sweep
    emits reports and failures in task order, plain concatenation is
    byte-identical — reports *and* :class:`FailureReport` entries — to
    the unsharded run.  (The one exception: a workload whose *study*
    cannot be built emits one summarising failure per shard that covers
    it, where the unsharded run emits a single one.)
    """
    reports: list[ComparisonReport] = []
    failures: list[FailureReport] = []
    for shard in shards:
        reports.extend(shard.reports)
        failures.extend(shard.failures)
    return SweepResult(reports=tuple(reports), failures=tuple(failures))


def write_shard_file(
    path: str | Path, result: SweepResult, shard: Sequence[int], spec: dict
) -> Path:
    """Persist one shard's result for a later :func:`merge_shard_files`.

    ``spec`` is the full sweep specification (workloads and axes); the
    merge refuses to combine shards whose specs differ, so a shard of
    the wrong sweep can never silently corrupt a merged result.
    """
    index, count = shard
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SHARD_SCHEMA,
        "spec": dict(spec),
        "shard": (int(index), int(count)),
        "result": result,
    }
    with path.open("wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def read_shard_file(path: str | Path) -> dict:
    """Load and validate one shard file written by :func:`write_shard_file`."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise ConfigurationError(f"shard file not found: {path}") from None
    except Exception as error:
        raise ConfigurationError(f"unreadable shard file {path}: {error}") from None
    if not isinstance(payload, dict) or payload.get("schema") != SHARD_SCHEMA:
        raise ConfigurationError(
            f"{path} is not a {SHARD_SCHEMA} shard file"
        )
    return payload


def merge_shard_files(paths: Sequence[str | Path]) -> SweepResult:
    """Merge shard files into one result, validating the partition.

    Requires every shard to come from the same sweep spec and the shard
    indices to form the complete partition ``0..count-1``; shards may be
    given in any order (they are sorted by index before merging).
    """
    if not paths:
        raise ConfigurationError("no shard files to merge")
    payloads = [read_shard_file(path) for path in paths]
    spec = payloads[0]["spec"]
    count = payloads[0]["shard"][1]
    for path, payload in zip(paths, payloads):
        if payload["spec"] != spec:
            raise ConfigurationError(
                f"shard {path} comes from a different sweep "
                f"(spec {payload['spec']!r} != {spec!r})"
            )
        if payload["shard"][1] != count:
            raise ConfigurationError(
                f"shard {path} uses a different shard count "
                f"({payload['shard'][1]} != {count})"
            )
    indices = sorted(payload["shard"][0] for payload in payloads)
    if indices != list(range(count)):
        raise ConfigurationError(
            f"incomplete shard partition: have indices {indices}, "
            f"need exactly 0..{count - 1}"
        )
    ordered = sorted(payloads, key=lambda payload: payload["shard"][0])
    return merge_shards(payload["result"] for payload in ordered)


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
    jobs: int | None = None,
    strict: bool = False,
    retries: int = DEFAULT_RETRIES,
    shard: Sequence[int] | None = None,
    _span: tuple[int, int] | None = None,
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
        jobs: Fan grid points across this many worker processes.  Only
            suite workloads named by string parallelise (an explicit
            ``study`` cannot cross a process boundary); report order is
            identical to the serial run.  The parent builds the study
            once *before* spawning, so cold workers never duplicate it.
        strict: Re-raise the first unrecoverable task error (annotated
            with the workload name) instead of recording a
            :class:`FailureReport` and returning partial results.
        retries: Bounded re-attempts per failing task before giving up.
        shard: ``(index, count)`` — run only this contiguous slice of
            the grid (see :func:`shard_span`); :func:`merge_shards` over
            all ``count`` shards reproduces the unsharded result.
        _span: Internal ``[start, stop)`` grid slice used by
            :func:`sweep_many` sharding; mutually exclusive with
            ``shard``.
    """
    decoder = decoder or DecoderModel()
    configs = _grid(cache_sizes, memories, clb_entries, data_miss_rates, decoder)
    if shard is not None and _span is not None:
        raise ConfigurationError("pass shard or _span, not both")
    if shard is not None:
        start, stop = shard_span(len(configs), shard)
        configs = configs[start:stop]
    elif _span is not None:
        start, stop = _span
        configs = configs[start:stop]
    workload_name = workload if isinstance(workload, str) else workload.name
    failures: list[tuple[int, FailureReport]] = []
    reports: list[ComparisonReport | None] = [None] * len(configs)

    # --- single-flight study build ------------------------------------
    # Build (or load) the study once in the parent before any worker
    # exists.  Forked workers inherit it copy-on-write; other start
    # methods find the pieces in the disk artifact cache.  This is what
    # keeps a cold parallel sweep from simulating the trace N times.
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

    def _settle(position: int, config: SystemConfig, error_type: str, message: str, tb: str) -> None:
        """Retry one failed grid point, then report or raise."""
        report, retry_error, extra = _retry_config(
            workload, config, local_study, retries
        )
        if report is not None:
            reports[position] = report
            return
        if retry_error is not None:
            error_type = type(retry_error).__name__
            message = str(retry_error)
            tb = "".join(
                traceback.format_exception(
                    type(retry_error), retry_error, retry_error.__traceback__
                )
            )
        context = f"workload {workload_name!r} at {_config_detail(config)}"
        if strict:
            source = retry_error if retry_error is not None else ReproError(message)
            raise _annotate(source, context) from retry_error
        METRICS.count("sweep.failures")
        failures.append(
            (
                position,
                FailureReport(
                    workload=workload_name,
                    detail=_config_detail(config),
                    error_type=error_type,
                    message=message,
                    attempts=1 + extra,
                    traceback=tb,
                ),
            )
        )

    workers = (
        effective_jobs(jobs, len(configs))
        if study is None and isinstance(workload, str)
        else 1
    )
    if jobs is not None:
        METRICS.gauge("sweep.workers", workers)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = [configs[index::workers] for index in range(workers)]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
        ) as pool:
            futures = [pool.submit(_metrics_chunk, workload, chunk) for chunk in chunks]
            for stripe, future in enumerate(futures):
                try:
                    outcomes, worker_metrics = future.result()
                    METRICS.merge(worker_metrics)
                except Exception as error:
                    # The whole chunk died (worker crash, pool breakage,
                    # unpicklable result...).  Completed chunks are kept;
                    # this one's grid points are re-attempted in-process.
                    outcomes = [
                        ("err", type(error).__name__, str(error), "")
                        for _ in chunks[stripe]
                    ]
                for offset, outcome in enumerate(outcomes):
                    position = stripe + offset * workers
                    if outcome[0] == "ok":
                        reports[position] = outcome[1]
                    else:
                        _settle(position, configs[position], *outcome[1:])
    else:
        for position, config in enumerate(configs):
            try:
                reports[position] = local_study.metrics(config)
            except Exception as error:
                _settle(
                    position,
                    config,
                    type(error).__name__,
                    str(error),
                    traceback.format_exc(),
                )
    # Failures surface in task order regardless of which worker (or
    # stripe) hit them, so serial, parallel, and merged-shard runs all
    # produce identical SweepResults.
    failures.sort(key=lambda entry: entry[0])
    return SweepResult(
        reports=tuple(report for report in reports if report is not None),
        failures=tuple(report for _, report in failures),
    )


def _grid_size(axes: dict) -> int:
    """Grid points per workload for :func:`sweep_many`'s task arithmetic."""
    return (
        len(axes.get("cache_sizes", DEFAULT_CACHE_SIZES))
        * len(axes.get("memories", DEFAULT_MEMORIES))
        * len(axes.get("clb_entries", DEFAULT_CLB_ENTRIES))
        * len(axes.get("data_miss_rates", DEFAULT_DATA_MISS_RATES))
    )


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
    shard: Sequence[int] | None = None,
    **axes,
) -> SweepResult:
    """Sweep several workloads and concatenate the results.

    With ``jobs`` set, whole workloads fan across a process pool (each
    worker warms up from the shared on-disk artifact cache); results are
    concatenated in the given workload order, exactly as a serial run.

    With ``shard=(i, n)`` set, only the i-th contiguous slice of the
    flattened ``workloads x grid`` task list runs — the unit of
    cross-machine splitting — and :func:`merge_shards` over all ``n``
    shard results reproduces the unsharded run byte-for-byte.

    One failing workload never takes the rest of the sweep down: its
    tasks are retried (bounded by ``retries``) and then recorded as
    :class:`FailureReport` entries next to every other workload's
    completed reports.  ``strict=True`` restores fail-fast — the first
    failure re-raises, annotated with the failing workload's name.
    """
    workloads = list(workloads)
    axes = dict(axes, strict=strict, retries=retries)
    tasks: list[tuple[str, dict]] = []
    if shard is not None:
        grid = _grid_size(axes)
        start, stop = shard_span(len(workloads) * grid, shard)
        for index, workload in enumerate(workloads):
            low, high = index * grid, (index + 1) * grid
            begin, end = max(start, low), min(stop, high)
            if begin < end:
                tasks.append((workload, dict(axes, _span=(begin - low, end - low))))
    else:
        tasks = [(workload, axes) for workload in workloads]
    reports: list[ComparisonReport] = []
    failures: list[FailureReport] = []
    workers = effective_jobs(jobs, len(tasks))
    if jobs is not None:
        METRICS.gauge("sweep.workers", workers)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_pool_context()
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
