"""The asyncio compression server.

One :class:`CompressionServer` owns four cooperating pieces:

* a stream listener (TCP or Unix socket) speaking the frame protocol of
  :mod:`repro.service.protocol`, one handler task per connection and
  one task per request, so slow jobs never block the read loop;
* an admission gate — at most ``queue_limit`` jobs may be pending
  (queued or running); past that every new job is answered
  ``overloaded`` immediately, so a traffic burst degrades into fast
  errors instead of unbounded buffering;
* a single-flight table — identical in-flight ``(op, params, payload)``
  jobs coalesce onto one execution and share its result, extending the
  artifact layer's on-disk ``flock`` single-flight to cross-request,
  in-process single-flight (``service.coalesced`` counts the saves);
* a durable response cache — completed job responses persist in the
  artifact store as the ``service-response`` kind under the *same*
  content key (which the store extends with the digest of the workers'
  code and checks against its entry digest on load), so a repeat
  request (including after a restart on the same ``CCRP_CACHE_DIR``)
  is answered byte-identically with zero worker work
  (``service.cache.hit`` / ``service.cache.miss``);
* deadline propagation — requests may carry a ``deadline_ms`` budget;
  expired-on-arrival requests are refused, queued jobs whose deadline
  passes are shed at dispatch, and workers shed once more before
  executing (all counted in ``service.deadline_exceeded``);
* a batcher — admitted jobs land on one queue which a background task
  drains into chunks of up to ``batch_max``, each chunk one round trip
  to the :class:`~repro.service.workers.WorkerPool`; a semaphore holds
  concurrent chunks to the worker count.

Shutdown is graceful: :meth:`stop` closes the listener first (new
connections are refused), fails not-yet-admitted jobs with
``shutting_down``, waits for every in-flight job to finish and every
response to be written, then tears down the pool.

The server keeps its *own* :class:`~repro.core.metrics.MetricsRegistry`
(never the process-global one), merging the per-batch snapshots the
workers return, so tests and embedders read an isolated, consistent
view through the ``stats`` endpoint.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import time
from concurrent.futures.process import BrokenProcessPool

from repro.core import artifacts
from repro.core.metrics import MetricsRegistry
from repro.core.pool import FailureReport
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service.protocol import (
    FrameTooLarge,
    drain_exactly,
    payload_digest,
    read_frame,
    write_frame,
)
from repro.service.workers import JOB_OPS, WorkerPool

#: Error codes job exceptions map onto (anything else is ``job_failed``).
ERROR_CODES = {
    "ConfigurationError": "bad_request",
    "DeadlineExceeded": "deadline_exceeded",
    "IntegrityError": "integrity",
    "ProtocolError": "bad_request",
}

#: Ops whose completed responses persist in the durable response cache.
#: Deterministic pure functions of the request only — never ``crash``
#: (debug) and never jobs carrying a ``_gate`` rendezvous.
CACHED_OPS = ("compress", "decompress", "simulate")

#: Artifact kind of the stored responses; its code root is the workers.
RESPONSE_KIND = "service-response"


def _error_code(error_type: str) -> str:
    return ERROR_CODES.get(error_type, "job_failed")


class _Job:
    """One admitted unit of work, possibly shared by coalesced requests."""

    __slots__ = ("key", "op", "params", "payload", "future", "detail", "deadline")

    def __init__(
        self,
        key,
        op: str,
        params: dict,
        payload: bytes,
        detail: str,
        deadline: float | None = None,
    ):
        self.key = key
        self.op = op
        self.params = params
        self.payload = payload
        self.detail = detail
        # Latest monotonic deadline any waiter still cares about; None
        # means at least one waiter has no deadline (never shed).
        self.deadline = deadline
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()


class CompressionServer:
    """Async batch server over the codec/cache/simulation stack.

    Args:
        address: ``"unix:/path/to.sock"`` or ``"host:port"``.
        workers: Worker processes (default: available CPUs).
        queue_limit: Max pending (queued + running) jobs before new
            requests are refused with ``overloaded``.
        batch_max: Max jobs per worker round trip.
        debug: Allow the test-only ``crash`` op and ``_gate`` rendezvous
            params.  Production servers refuse both.
        response_cache: Persist completed responses in the artifact
            store (keyed identically to the coalescing key) so repeat
            requests — including after a server
            restart on the same ``CCRP_CACHE_DIR`` — are answered
            byte-identically without recomputation.  ``False`` restores
            the in-flight-only deduplication of PR 7.
    """

    def __init__(
        self,
        address: str,
        workers: int | None = None,
        queue_limit: int = 64,
        batch_max: int = 8,
        debug: bool = False,
        response_cache: bool = True,
    ) -> None:
        from repro.service.client import parse_address

        self.address = parse_address(address)
        self.pool = WorkerPool(workers)
        self.queue_limit = max(1, queue_limit)
        self.batch_max = max(1, batch_max)
        self.debug = debug
        self.response_cache = response_cache
        self.metrics = MetricsRegistry()
        self._server: asyncio.base_events.Server | None = None
        self._queue: asyncio.Queue[_Job] = asyncio.Queue()
        self._inflight: dict[tuple, _Job] = {}
        self._pending = 0
        self._closing = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._batcher: asyncio.Task | None = None
        self._pool_ready = asyncio.Event()
        self._restart_lock = asyncio.Lock()
        self._chunk_slots = asyncio.Semaphore(self.pool.workers)
        self._chunk_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Fork the worker pool, then start accepting connections."""
        loop = asyncio.get_running_loop()
        if self.response_cache:
            # Scan the code closures once, before the workers fork and
            # inherit the digests, not inside the first request.
            artifacts.code_digest(RESPONSE_KIND)
        # Fork + warm the workers off-loop so startup never competes
        # with an already-running embedder loop.
        await loop.run_in_executor(None, self.pool.start)
        self._pool_ready.set()
        if self.address[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.address[1]
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.address[1], port=self.address[2]
            )
        self._batcher = asyncio.create_task(self._drain(), name="ccrp-batcher")

    async def stop(self) -> None:
        """Drain in-flight work, then shut everything down.

        Ordering is the graceful-shutdown contract: (1) stop accepting
        connections, (2) refuse not-yet-admitted jobs with
        ``shutting_down``, (3) let every admitted job finish and its
        response reach the client, (4) close connections and the pool.
        """
        self._closing = True
        if self._server is not None:
            # close() stops accepting immediately; wait_closed() is
            # deferred to the end because (since Python 3.12) it also
            # waits for the connection handlers, which only exit once
            # the drain below closes their writers.
            self._server.close()
        if self._pending:
            await self._idle.wait()
        if self._batcher is not None:
            self._batcher.cancel()
            await asyncio.gather(self._batcher, return_exceptions=True)
        await asyncio.gather(*self._chunk_tasks, return_exceptions=True)
        # All jobs are resolved; wait for their responses to flush.
        await asyncio.gather(*self._request_tasks, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.pool.shutdown)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI wraps this)."""
        if self._server is None:
            await self.start()
        try:
            await asyncio.Event().wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        self.metrics.count("service.connections")
        io_lock = asyncio.Lock()
        local_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except FrameTooLarge as error:
                    # The prefix was well-formed, so the stream is still
                    # synchronised: answer with a structured refusal
                    # naming the limit, discard exactly the declared
                    # body, and keep serving the connection.
                    self.metrics.count("service.too_large")
                    await self._send(
                        writer,
                        io_lock,
                        {
                            "id": None,
                            "ok": False,
                            "error": {
                                "code": "too_large",
                                "message": str(error),
                                "limit": error.limit,
                                "declared": error.declared,
                            },
                        },
                    )
                    if await drain_exactly(reader, error.skip_bytes):
                        continue
                    break
                except ProtocolError as error:
                    # The stream is unsynchronised; report best-effort
                    # and hang up.  Never retry, never hang.
                    self.metrics.count("service.protocol_errors")
                    await self._send(
                        writer,
                        io_lock,
                        {
                            "ok": False,
                            "error": {"code": "protocol", "message": str(error)},
                        },
                    )
                    break
                if frame is None:
                    break
                header, payload = frame
                self.metrics.count("service.bytes_in", len(payload))
                request = asyncio.create_task(
                    self._serve_request(writer, io_lock, header, payload)
                )
                local_tasks.add(request)
                self._request_tasks.add(request)
                request.add_done_callback(local_tasks.discard)
                request.add_done_callback(self._request_tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if local_tasks:
                await asyncio.gather(*local_tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        io_lock: asyncio.Lock,
        header: dict,
        payload: bytes = b"",
    ) -> None:
        """Write one response frame; concurrent request tasks serialise here."""
        try:
            async with io_lock:
                written = await write_frame(writer, header, payload)
            self.metrics.count("service.bytes_out", written)
        except (ConnectionError, OSError):
            # The client went away; its job results are simply dropped.
            self.metrics.count("service.dropped_responses")

    async def _serve_request(
        self,
        writer: asyncio.StreamWriter,
        io_lock: asyncio.Lock,
        header: dict,
        payload: bytes,
    ) -> None:
        request_id = header.get("id")
        op = header.get("op")
        params = header.get("params", {})
        client = header.get("client", "anon")
        started = time.monotonic()
        response: dict = {"id": request_id}
        out_payload = b""
        if not isinstance(op, str) or not isinstance(params, dict):
            op_label = "invalid"
            response["ok"] = False
            response["error"] = {
                "code": "bad_request",
                "message": "request header needs a string 'op' and a dict 'params'",
            }
        else:
            op_label = op
            self.metrics.count(f"requests.{op}")
            self.metrics.count(f"clients.{client}.requests")
            try:
                deadline = self._parse_deadline(header)
                result, out_payload = await self._dispatch(
                    op, params, payload, deadline
                )
                response["ok"] = True
                response["result"] = result
                if op in JOB_OPS:
                    response["crc32"] = payload_digest(out_payload)
            except ReproError as error:
                code = getattr(error, "code", None) or _error_code(
                    type(error).__name__
                )
                detail: dict = {"code": code, "message": str(error)}
                failure = getattr(error, "failure", None)
                if failure:
                    detail["failure"] = failure
                response["ok"] = False
                response["error"] = detail
                self.metrics.count(f"errors.{code}")
        self.metrics.observe(
            f"latency.{op_label}", (time.monotonic() - started) * 1000.0
        )
        await self._send(writer, io_lock, response, out_payload)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _parse_deadline(self, header: dict) -> float | None:
        """Admission half of deadline propagation.

        ``deadline_ms`` in a request header is the client's remaining
        budget.  An already-expired budget is refused here — counted in
        ``service.deadline_exceeded`` — before any dispatch, so the
        server never computes a result nobody is waiting for.  A live
        budget converts to an absolute monotonic deadline carried by
        the job (and shed against in :meth:`_run_chunk` / the worker).
        """
        budget_ms = header.get("deadline_ms")
        if budget_ms is None:
            return None
        if isinstance(budget_ms, bool) or not isinstance(budget_ms, (int, float)):
            raise ProtocolError(f"deadline_ms must be a number, got {budget_ms!r}")
        if budget_ms <= 0:
            self.metrics.count("service.deadline_exceeded")
            raise ServiceError(
                f"deadline budget of {budget_ms} ms had already expired on "
                f"arrival; request was not dispatched",
                code="deadline_exceeded",
            )
        return time.monotonic() + budget_ms / 1000.0

    async def _dispatch(
        self, op: str, params: dict, payload: bytes, deadline: float | None = None
    ) -> tuple[dict, bytes]:
        if op == "ping":
            return {"pong": True}, b""
        if op == "stats":
            return self._stats(), b""
        if op not in JOB_OPS:
            raise ProtocolError(f"unknown op {op!r}")
        if not self.debug and (op == "crash" or "_gate" in params):
            raise ProtocolError(f"op {op!r} with debug params needs a debug server")
        return await self._submit_job(op, params, payload, deadline)

    def _stats(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["server"] = {
            "pending": self._pending,
            "inflight": len(self._inflight),
            "queue_limit": self.queue_limit,
            "batch_max": self.batch_max,
            "workers": self.pool.workers,
            "pool_generation": self.pool.generation,
            "response_cache": self.response_cache,
            "closing": self._closing,
        }
        return snapshot

    def _cacheable(self, op: str, params: dict) -> bool:
        """Whether this job's response may persist in the durable cache."""
        return (
            self.response_cache
            and op in CACHED_OPS
            and "_gate" not in params
        )

    async def _submit_job(
        self, op: str, params: dict, payload: bytes, deadline: float | None = None
    ) -> tuple[dict, bytes]:
        if self._closing:
            raise ServiceError(
                "server is shutting down", code="shutting_down"
            )
        key = (
            op,
            json.dumps(params, sort_keys=True, separators=(",", ":")),
            hashlib.sha256(payload).hexdigest(),
        )
        existing = self._inflight.get(key)
        if existing is not None:
            # Cross-request single-flight: ride the in-flight execution.
            self.metrics.count("service.coalesced")
            if existing.deadline is not None:
                # The shared job must live as long as its most patient
                # waiter: a deadline-free rider pins it, a later
                # deadline extends it.
                existing.deadline = (
                    None if deadline is None else max(existing.deadline, deadline)
                )
            return await asyncio.shield(existing.future)
        if self._cacheable(op, params):
            # Durable single-flight: a completed response with the same
            # content key — possibly from a previous server process on
            # this cache dir — is replayed byte-identically.  The read
            # is deliberately synchronous (like the key's payload hash
            # above) so no identical request can slip past it into a
            # duplicate execution.
            found, cached = artifacts.get_cache().load(RESPONSE_KIND, *key)
            if found:
                self.metrics.count("service.cache.hit")
                return cached
            self.metrics.count("service.cache.miss")
        if self._pending >= self.queue_limit:
            self.metrics.count("service.overloaded")
            raise ServiceError(
                f"{self._pending} jobs pending (limit {self.queue_limit}); "
                f"retry later",
                code="overloaded",
            )
        job = _Job(
            key, op, params, payload, detail=f"{op}:{key[1][:80]}", deadline=deadline
        )
        self._inflight[key] = job
        self._pending += 1
        self._idle.clear()
        self.metrics.gauge("service.queue_depth", self._pending)
        self._queue.put_nowait(job)
        return await asyncio.shield(job.future)

    def _resolve(self, job: _Job, result=None, error: Exception | None = None):
        """Finish one job: single-flight table first, then the future."""
        self._inflight.pop(job.key, None)
        self._pending -= 1
        self.metrics.gauge("service.queue_depth", self._pending)
        if not self._pending:
            self._idle.set()
        if not job.future.done():
            if error is not None:
                job.future.set_exception(error)
            else:
                job.future.set_result(result)

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------

    async def _drain(self) -> None:
        """Forever: gather one chunk from the queue, hand it to the pool."""
        while True:
            chunk = [await self._queue.get()]
            while len(chunk) < self.batch_max:
                try:
                    chunk.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._chunk_slots.acquire()
            task = asyncio.create_task(self._run_chunk(chunk))
            self._chunk_tasks.add(task)
            task.add_done_callback(self._chunk_tasks.discard)

    def _shed_expired(self, chunk: list[_Job], now: float) -> list[_Job]:
        """Deadline shedding at dispatch: drop queued jobs nobody waits for.

        A job whose (latest) waiter deadline passed while it sat in the
        queue is resolved with a ``deadline_exceeded`` error instead of
        being sent to a worker — the queue sheds under pressure rather
        than computing results the clients have already abandoned.
        """
        live: list[_Job] = []
        for job in chunk:
            if job.deadline is not None and job.deadline <= now:
                self.metrics.count("service.deadline_exceeded")
                self._resolve(
                    job,
                    error=ServiceError(
                        f"deadline expired while {job.op!r} was queued; "
                        f"job shed before dispatch",
                        code="deadline_exceeded",
                    ),
                )
            else:
                live.append(job)
        return live

    def _store_response(self, job: _Job, result: dict, payload: bytes) -> None:
        """Persist one completed response; failures never fail the job."""
        if not self._cacheable(job.op, job.params):
            return
        try:
            artifacts.get_cache().store(
                RESPONSE_KIND, (result, bytes(payload)), *job.key
            )
            self.metrics.count("service.cache.store")
        except Exception:
            # A full disk or unwritable cache dir degrades to
            # recomputation on the next repeat, never to a lost job.
            self.metrics.count("service.cache.store_failures")

    async def _run_chunk(self, chunk: list[_Job]) -> None:
        try:
            now = time.monotonic()
            chunk = self._shed_expired(chunk, now)
            if not chunk:
                return
            self.metrics.count("service.batches")
            self.metrics.count("service.batched_jobs", len(chunk))
            # Hold new chunks while a crashed pool is being replaced, so
            # an innocent batch is never submitted into the rubble.
            await self._pool_ready.wait()
            generation = self.pool.generation
            # Workers live on this host but in other processes, where
            # the monotonic clock origin is shared yet opaque; hand them
            # wall-clock deadlines derived from the same remaining
            # budget instead.
            wall = time.time()
            try:
                pool_future = self.pool.submit(
                    [
                        (
                            job.op,
                            job.params,
                            job.payload,
                            None
                            if job.deadline is None
                            else wall + (job.deadline - now),
                        )
                        for job in chunk
                    ]
                )
                outcomes, worker_metrics = await asyncio.wrap_future(pool_future)
            except BrokenProcessPool:
                self.metrics.count("service.worker_crashes")
                for job in chunk:
                    failure = FailureReport(
                        workload=str(job.params.get("workload", "-")),
                        detail=job.detail,
                        error_type="BrokenProcessPool",
                        message="a worker process died while running this batch",
                        attempts=1,
                    )
                    self._resolve(
                        job,
                        error=ServiceError(
                            failure.render(),
                            code="worker_crash",
                            failure=dataclasses.asdict(failure),
                        ),
                    )
                # Exactly one of the concurrently-failing chunks wins the
                # restart; the fork happens off-loop, behind the gate.
                async with self._restart_lock:
                    if generation == self.pool.generation:
                        self._pool_ready.clear()
                        loop = asyncio.get_running_loop()
                        restarted = await loop.run_in_executor(
                            None, self.pool.restart, generation
                        )
                        self._pool_ready.set()
                        if restarted:
                            self.metrics.count("service.worker_restarts")
                return
            self.metrics.merge(worker_metrics)
            for job, outcome in zip(chunk, outcomes):
                if outcome[0] == "ok":
                    self._store_response(job, outcome[1], outcome[2])
                    self._resolve(job, result=(outcome[1], outcome[2]))
                else:
                    _, error_type, message, worker_traceback = outcome
                    if error_type == "DeadlineExceeded":
                        self.metrics.count("service.deadline_exceeded")
                    failure = FailureReport(
                        workload=str(job.params.get("workload", "-")),
                        detail=job.detail,
                        error_type=error_type,
                        message=message,
                        attempts=1,
                        traceback=worker_traceback,
                    )
                    self._resolve(
                        job,
                        error=ServiceError(
                            f"{error_type}: {message}",
                            code=_error_code(error_type),
                            failure=dataclasses.asdict(failure),
                        ),
                    )
        except Exception as error:
            # Belt and braces: a bug here must never strand a future.
            for job in chunk:
                if job.key in self._inflight:
                    self._resolve(
                        job, error=ServiceError(str(error), code="internal")
                    )
        finally:
            self._chunk_slots.release()
