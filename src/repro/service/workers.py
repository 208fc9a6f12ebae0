"""Process workers for the compression service.

One pool task is one *batch* of jobs (:func:`run_jobs`): the server
drains its queue into worker-sized chunks so a burst of small requests
pays the process round trip once per chunk, not once per request.  Jobs
never take a worker down — each is attempted independently, exceptions
travel back as structured ``("err", type, message, traceback)`` tuples
(the :class:`~repro.core.pool.FailureReport` discipline), and the
batch returns its :data:`~repro.core.metrics.METRICS` snapshot so the
server can fold worker-side cache counters (``artifacts.build``,
``artifacts.coalesced``, ...) into the live ``stats`` endpoint.

The pool itself (:class:`WorkerPool`) reuses the warm-start context of
:mod:`repro.core.pool`: workers fork (or use ``forkserver`` where
``fork`` is unavailable) from the server process, share the on-disk
artifact cache, and coalesce concurrent builds of the same artifact through the per-key
``flock`` single-flight of :mod:`repro.core.artifacts`.  Every fresh
worker starts from an empty in-memory study LRU, so cache behaviour is
attributable: the first build of a study in a pool hits the disk cache
or builds it exactly once, visibly.

Debug-only hooks (the server refuses them unless started with
``debug=True``):

* ``params["_gate"] = [ready_fifo, release_fifo]`` — a deterministic
  FIFO rendezvous: the worker signals arrival by opening ``ready`` for
  writing, then blocks until the test opens (and closes) ``release``.
  Concurrency tests synchronise on request state this way instead of
  sleeping.
* ``op == "crash"`` — the worker calls ``os._exit``; the injected death
  exercises the server's broken-pool recovery.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor

from repro.cache.datacache import DataCacheModel
from repro.ccrp.compressor import ProgramCompressor
from repro.core import artifacts
from repro.core.config import SystemConfig
from repro.core.metrics import METRICS
from repro.core.standard import standard_code
from repro.core.study import compare
from repro.core.pool import available_cpus, pool_context
from repro.errors import ConfigurationError, IntegrityError
from repro.faults.integrity import crc8

#: Ops a worker executes; everything else is a server-side endpoint.
JOB_OPS = ("compress", "decompress", "simulate", "crash")

#: Result fields of one ``simulate`` report (the sweep CSV columns plus
#: the cycle totals the row was computed from).
SIMULATE_FIELDS = (
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


def _apply_gate(params: dict) -> None:
    """Debug rendezvous: announce arrival, then wait to be released."""
    gate = params.get("_gate")
    if not gate:
        return
    ready, release = gate
    # Opening a FIFO for writing blocks until a reader appears — the
    # test's open(ready) is the "request is now executing" sync point.
    with open(ready, "wb"):
        pass
    # Block until the test opens and closes the release FIFO.
    with open(release, "rb") as handle:
        handle.read()


def _job_compress(params: dict, payload: bytes) -> tuple[dict, bytes]:
    """Compress a text segment with the library's standard code."""
    if not payload:
        raise ConfigurationError("compress needs a non-empty binary payload")
    alignment = int(params.get("alignment", 1))
    integrity = bool(params.get("integrity", False))
    compressor = ProgramCompressor(
        standard_code(), alignment=alignment, integrity=integrity
    )
    image = compressor.compress(payload)
    result = {
        "line_size": image.line_size,
        "line_count": image.line_count,
        "original_size": image.original_size,
        "alignment": alignment,
        "block_sizes": [block.stored_size for block in image.blocks],
        "compressed_flags": [bool(block.is_compressed) for block in image.blocks],
        "compression_ratio": image.compression_ratio,
        "total_ratio_with_lat": image.total_ratio_with_lat,
        "code": artifacts.code_fingerprint(image.code),
        "integrity": integrity,
    }
    if image.line_crcs is not None:
        result["line_crcs"] = image.line_crcs.hex()
    return result, b"".join(block.data for block in image.blocks)


def _job_decompress(params: dict, payload: bytes) -> tuple[dict, bytes]:
    """Expand a stored blob back to the original text segment.

    ``params`` is the metadata a ``compress`` response returned (block
    sizes, compressed flags, line size, original size).  When the
    metadata carries per-line CRCs, every stored block is verified
    before decoding — a mismatch raises
    :class:`~repro.errors.IntegrityError` with the failing line number,
    end-to-end attestation in the spirit of the integrity layer.
    """
    code = standard_code()
    expected_code = params.get("code")
    if expected_code is not None and expected_code != artifacts.code_fingerprint(code):
        raise ConfigurationError(
            f"blob was compressed with code {expected_code}, this decoder "
            f"is wired for {artifacts.code_fingerprint(code)}"
        )
    try:
        line_size = int(params["line_size"])
        original_size = int(params["original_size"])
        block_sizes = [int(size) for size in params["block_sizes"]]
        flags = [bool(flag) for flag in params["compressed_flags"]]
    except (KeyError, TypeError, ValueError) as error:
        raise ConfigurationError(f"bad decompress metadata: {error!r}") from None
    if len(block_sizes) != len(flags):
        raise ConfigurationError(
            f"{len(block_sizes)} block sizes but {len(flags)} compressed flags"
        )
    if sum(block_sizes) != len(payload):
        raise ConfigurationError(
            f"stored blob is {len(payload)} bytes but the block sizes "
            f"sum to {sum(block_sizes)}"
        )
    crcs = bytes.fromhex(params["line_crcs"]) if "line_crcs" in params else None
    if crcs is not None and len(crcs) != len(block_sizes):
        raise ConfigurationError(
            f"{len(crcs)} line CRCs for {len(block_sizes)} blocks"
        )
    slices: list[bytes] = []
    offset = 0
    for size in block_sizes:
        slices.append(payload[offset : offset + size])
        offset += size
    if crcs is not None:
        for line_number, data in enumerate(slices):
            if crc8(data) != crcs[line_number]:
                raise IntegrityError(
                    f"line {line_number}: stored block fails CRC "
                    f"(expected {crcs[line_number]:#04x}, got {crc8(data):#04x})",
                    line_number=line_number,
                )
    decoded = iter(
        code.decode_lines(
            [data for data, flag in zip(slices, flags) if flag], line_size
        )
    )
    text = b"".join(
        next(decoded) if flag else data for data, flag in zip(slices, flags)
    )
    return {
        "original_size": original_size,
        "line_count": len(block_sizes),
    }, text[:original_size]


def _job_simulate(params: dict, payload: bytes) -> tuple[dict, bytes]:
    """One grid point of the paper's design space, via the shared caches."""
    if payload:
        raise ConfigurationError("simulate takes parameters only, no payload")
    workload = params.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ConfigurationError("simulate needs a suite workload name")
    config = SystemConfig(
        cache_bytes=int(params.get("cache_bytes", 1024)),
        memory=params.get("memory", "eprom"),
        clb_entries=int(params.get("clb_entries", 16)),
        data_cache=DataCacheModel(
            miss_rate=float(params.get("data_cache_miss_rate", 1.0))
        ),
    )
    report = compare(workload, config)
    result = {name: getattr(report, name) for name in SIMULATE_FIELDS}
    result["baseline_cycles"] = report.baseline.total_cycles
    result["ccrp_cycles"] = report.ccrp.total_cycles
    return result, b""


def _run_one(op: str, params: dict, payload: bytes) -> tuple[dict, bytes]:
    _apply_gate(params)
    if op == "compress":
        return _job_compress(params, payload)
    if op == "decompress":
        return _job_decompress(params, payload)
    if op == "simulate":
        return _job_simulate(params, payload)
    if op == "crash":
        os._exit(1)
    raise ConfigurationError(f"unknown worker op {op!r}")


def run_jobs(
    jobs: list[tuple[str, dict, bytes, float | None]]
) -> tuple[list[tuple], dict]:
    """Worker entry point: execute one batch, capture per-job outcomes.

    Outcomes are ``("ok", result, payload)`` or ``("err", type, message,
    traceback)`` per job — one bad request never discards the rest of the
    batch — and the second return value is this batch's metrics snapshot
    for the server to merge.

    Each job carries an optional absolute wall-clock deadline
    (``time.time()`` seconds; server and workers share a host).  A job
    whose deadline passed while the batch waited in the executor queue
    is shed here with a ``DeadlineExceeded`` outcome instead of burning
    a worker on a result nobody is waiting for.
    """
    METRICS.reset()
    outcomes: list[tuple] = []
    for op, params, payload, deadline_unix in jobs:
        if deadline_unix is not None and time.time() >= deadline_unix:
            outcomes.append(
                (
                    "err",
                    "DeadlineExceeded",
                    f"deadline expired before {op!r} ran in a worker",
                    "",
                )
            )
            METRICS.count("service.worker_shed")
            continue
        try:
            result, out_payload = _run_one(op, params, payload)
            outcomes.append(("ok", result, out_payload))
        except Exception as error:
            outcomes.append(
                ("err", type(error).__name__, str(error), traceback.format_exc())
            )
    return outcomes, METRICS.snapshot()


def _worker_init() -> None:
    """Per-worker start-up: attributable caches, clean counters.

    Forked workers inherit the parent's in-memory study LRU copy-on-
    write; clearing it makes every study the pool serves go through the
    *disk* artifact cache, where builds are single-flight and counted.
    """
    artifacts.clear()
    METRICS.reset()


def _warmup() -> int:
    """No-op task used to fork workers before the server starts serving."""
    return os.getpid()


class WorkerPool:
    """A restartable batch-job process pool.

    Thin wrapper over :class:`~concurrent.futures.ProcessPoolExecutor`
    under the sweep layer's warm-start context (``fork`` preferred,
    then ``forkserver``).  A crashed worker breaks the whole
    executor — :meth:`restart` swaps in a fresh one; the generation
    counter keeps concurrent chunk failures from double-restarting.
    """

    def __init__(self, workers: int | None = None) -> None:
        # An explicit count wins even past the CPU count (a service may
        # deliberately oversubscribe); the default sizes to the machine.
        self.workers = max(1, workers) if workers else available_cpus()
        self._executor: ProcessPoolExecutor | None = None
        self.generation = 0

    def start(self) -> None:
        """Create the executor and fork the workers up front."""
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=pool_context(),
            initializer=_worker_init,
        )
        # Touch every worker slot so the forks (and their first imports)
        # happen before the event loop starts multiplexing clients.
        for future in [self._executor.submit(_warmup) for _ in range(self.workers)]:
            future.result()

    def submit(self, jobs: list[tuple[str, dict, bytes, float | None]]) -> Future:
        """Submit one batch; returns the executor's future for it."""
        if self._executor is None:
            raise ConfigurationError("worker pool is not running")
        return self._executor.submit(run_jobs, jobs)

    def restart(self, generation: int) -> bool:
        """Replace a broken executor; no-op if ``generation`` is stale.

        Returns True when this call performed the restart — concurrent
        chunks that all observed the same broken pool race here, and
        exactly one of them wins.
        """
        if generation != self.generation or self._executor is None:
            return False
        self.generation += 1
        broken = self._executor
        self._executor = None
        broken.shutdown(wait=False, cancel_futures=True)
        self.start()
        return True

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
