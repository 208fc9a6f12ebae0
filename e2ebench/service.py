"""``service-mixed``: ``ccrp-serve --workers 1`` under seeded load.

Set-up builds everything the load needs from the seed, then starts the
server on a Unix socket inside the checkout with a fresh cache dir:

* a pool of :data:`POOL_PROGRAMS` seeded ``CodeGenerator`` programs;
* ``compress`` windows of 4/16/64 KiB cut at distinct seeded offsets;
* ``decompress`` blobs, each compressed from its own window by the library;
* the 8 simulation programs' studies, built into the server's cache dir
  for every cache size and memory the ``simulate`` grid uses.

One generator process (this one) sends over :data:`CONNECTIONS`
connections, pipelining without waiting for replies.  Two phases, each
with requests of its own:

* bursts: closed loops of :data:`BURST_REQUESTS` requests with
  :data:`BURST_WINDOW` outstanding, at least :data:`MIN_BURSTS` and until
  ``--seconds`` of bursts are measured.  The median burst's time is the
  workload's ``wall_s``: it grows with what a request costs the server
  (codec, simulation, batching, frame I/O), and its rate is
  ``service.saturated_rps``, the server's measured capacity.
* open loop, traced mode only (its figures are all per-layer): a ladder
  of rungs of :data:`OPEN_REQUESTS` requests each on a Poisson schedule,
  offered at the :data:`LADDER` shares of that capacity, lowest first, so
  the queueing seen is that of a server at a known utilisation on any
  host.  Each request is timed from when it was due, so a stall is
  charged to every request queued behind it; when the generator itself
  fell behind, the run says so (``gen.behind``) and the rung is not a
  valid sample.  ``service.p50_ms``/``service.p99_ms`` come from the
  first rung; over seeds of one build they spread 0.3-0.6 on a shared
  2-vCPU Xeon host, beyond the largest bound a metric may have, so they
  carry none.  ``service.max_rps`` is the rate of the highest rung that
  keeps within :data:`LATENCY_LIMIT_MS`; the ladder stops at the first
  rung that does not.

Every distinct response, and every repeat, is then checked byte for byte
against the direct library call (``repro.service.workers.run_jobs``) on
the same input; those calls, made after the load, give ``service.lib.*``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import gate
import stats
from common import WORK, fresh_dir, kill_group, log, program_env, tree_mb

#: Closed-loop bursts: the fewest (more run until ``--seconds`` are measured), their
#: requests, and how many are outstanding at once (below the server's default
#: admission limit of 64, so none is refused).
MIN_BURSTS = 5
BURST_REQUESTS = 300
BURST_WINDOW = 32
#: Open-loop rungs: offered rates as shares of the median burst's rate, lowest first.
LADDER = (0.5, 0.7, 0.9)
#: Open-loop requests per rung: p99 needs 10 samples beyond it.
OPEN_REQUESTS = 1000
#: A rung keeps within this when its p99 does and the median of its last tenth does
#: (that median rises when a backlog grows).  About five times the costliest
#: request, a 64 KiB compress (~37 ms in the library).
LATENCY_LIMIT_MS = 200.0
#: Generator lateness (p99) past which the open loop is not a valid sample.
LAG_LIMIT_MS = 20.0
CONNECTIONS = 2

#: Request mix, exact in every phase; ``repeat`` re-sends an earlier request of the same phase.
SHARES = (("compress", 0.48), ("decompress", 0.33), ("simulate", 0.12), ("repeat", 0.07))
#: Window sizes for compress and decompress, with their exact shares.
WINDOWS = ((4096, 0.6), (16384, 0.3), (65536, 0.1))
POOL_PROGRAMS = 2
POOL_PROGRAM_BYTES = 128 * 1024

CACHE_SIZES = (256, 512, 1024, 2048, 4096)
CLB_SIZES = (4, 8, 16, 32, 64)
DATA_MISS_RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.5)
#: Data-cache miss rate of the set-up simulations: never in the load grid.
WARM_DATA_MISS_RATE = 1.0

#: Seed of the traffic's shape (see :class:`Inputs`); fixed for every run.
SHAPE_SEED = 0

COMPRESS_PARAMS = {"alignment": 1, "integrity": False}
DECOMPRESS_KEYS = ("line_size", "original_size", "block_sizes", "compressed_flags", "code")


def request_key(op: str, params: dict, payload: bytes) -> tuple:
    return op, json.dumps(params, sort_keys=True, separators=(",", ":")), hashlib.sha256(payload).hexdigest()


def library_call(op: str, params: dict, payload: bytes) -> tuple:
    """The worker's own job function, in this process: ``("ok", result, payload)`` or an error."""
    from repro.service.workers import run_jobs

    outcomes, _ = run_jobs([(op, params, payload, None)])
    return outcomes[0]


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


class Inputs:
    """Seeded request generator; every compress/decompress window is distinct.

    ``--seed`` picks the contents: the pool programs, the windows cut from
    them and the simulate grid points.  The traffic's shape -- the order of
    ops and window sizes, which earlier request a repeat re-sends, and the
    arrival times -- comes from :data:`SHAPE_SEED`, so every seed offers the
    same load and the tail latency varies with the program, not with where
    a seed happens to bunch the 64 KiB compresses.
    """

    def __init__(self, seed: int) -> None:
        from repro.isa.assembler import Assembler
        from repro.memsys.models import MEMORY_MODELS
        from repro.workloads.codegen import CodeGenerator
        from repro.workloads.suite import SIMULATION_PROGRAMS

        self.rng = random.Random(seed)
        self.shape = random.Random(SHAPE_SEED)
        self.pool = [
            Assembler().assemble(CodeGenerator(f"e2ebench-{seed}-{index}").static_program(POOL_PROGRAM_BYTES)).text
            for index in range(POOL_PROGRAMS)
        ]
        self.memories = tuple(sorted(MEMORY_MODELS))
        self.programs = SIMULATION_PROGRAMS
        grid = [
            (program, cache, clb, memory, rate)
            for program in self.programs
            for cache in CACHE_SIZES
            for clb in CLB_SIZES
            for memory in self.memories
            for rate in DATA_MISS_RATES
        ]
        self.rng.shuffle(grid)
        self.grid = iter(grid)
        self.windows_used: set[tuple[int, int, int]] = set()

    def window(self, size: int) -> bytes:
        while True:
            program = self.rng.randrange(len(self.pool))
            offset = 4 * self.rng.randrange((len(self.pool[program]) - size) // 4 + 1)
            if (program, offset, size) not in self.windows_used:
                self.windows_used.add((program, offset, size))
                return self.pool[program][offset : offset + size]

    def simulate_params(self) -> dict:
        program, cache, clb, memory, rate = next(self.grid)
        return {
            "workload": program,
            "cache_bytes": cache,
            "clb_entries": clb,
            "memory": memory,
            "data_cache_miss_rate": rate,
        }

    def shuffled(self, count: int, weighted) -> list:
        """``count`` labels in exactly the weighted proportions (largest remainder), in seeded order."""
        quotas = [(label, count * weight) for label, weight in weighted]
        counts = {label: int(quota) for label, quota in quotas}
        by_remainder = sorted(quotas, key=lambda item: item[1] - int(item[1]), reverse=True)
        for label, _ in by_remainder[: count - sum(counts.values())]:
            counts[label] += 1
        labels = [label for label, _ in weighted for _ in range(counts[label])]
        self.shape.shuffle(labels)
        return labels

    def requests(self, count: int) -> list[tuple[str, dict, bytes]]:
        """``count`` requests in exactly the :data:`SHARES` mix; decompress blobs are compressed here."""
        ops = self.shuffled(count, SHARES)
        while ops[0] == "repeat":
            ops.append(ops.pop(0))
        sizes = iter(self.shuffled(sum(op in ("compress", "decompress") for op in ops), WINDOWS))
        made: list[tuple[str, dict, bytes]] = []
        for op in ops:
            if op == "repeat":
                made.append(made[self.shape.randrange(len(made))])
            elif op == "simulate":
                made.append(("simulate", self.simulate_params(), b""))
            elif op == "decompress":
                made.append(self.decompress_request(next(sizes)))
            else:
                made.append(("compress", dict(COMPRESS_PARAMS), self.window(next(sizes))))
        return made

    def decompress_request(self, size: int) -> tuple[str, dict, bytes]:
        """Decompress of a fresh window's blob, compressed here by the library."""
        outcome = library_call("compress", COMPRESS_PARAMS, self.window(size))
        if outcome[0] != "ok":
            raise RuntimeError(f"set-up compress failed: {outcome[1]}: {outcome[2]}")
        return "decompress", {key: outcome[1][key] for key in DECOMPRESS_KEYS}, outcome[2]

    def code_warm_up(self) -> list[tuple[str, dict, bytes]]:
        """A compress outside the measured mix: the worker trains its standard code on the first one."""
        return [("compress", dict(COMPRESS_PARAMS), self.window(WINDOWS[0][0]))]

    def study_warm_up(self) -> list[tuple[str, dict, bytes]]:
        """A decompress, and a simulate per program that loads its study into the worker.

        The simulate points use the set-up data-cache miss rate, so none recurs in the load.
        """
        return [self.decompress_request(WINDOWS[0][0])] + [
            ("simulate", {"workload": program, "data_cache_miss_rate": WARM_DATA_MISS_RATE}, b"")
            for program in self.programs
        ]

    def schedule(self, count: int) -> list[float]:
        """Poisson arrival offsets at one request per unit of time, scaled to span exactly ``count``.

        Dividing them by a rate gives that rate's schedule; the scaling keeps the
        offered rate exact, so the phase's length does not vary with the seed.
        """
        offsets, now = [], 0.0
        for _ in range(count):
            now += self.shape.expovariate(1.0)
            offsets.append(now)
        return [offset * count / now for offset in offsets]

    def warm_studies(self) -> None:
        """Build every study the simulate grid needs into the current cache dir."""
        from repro.cache.datacache import DataCacheModel
        from repro.core import artifacts
        from repro.core.config import SystemConfig

        for program in self.programs:
            study = artifacts.get_study(program)
            for cache in CACHE_SIZES:
                for memory in self.memories:
                    study.metrics(
                        SystemConfig(
                            cache_bytes=cache,
                            memory=memory,
                            data_cache=DataCacheModel(miss_rate=WARM_DATA_MISS_RATE),
                        )
                    )


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


def _children(pid: int) -> list[int]:
    found = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            found += [int(child) for child in (task / "children").read_text().split()]
    except OSError:
        pass
    return found


def _peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


class Server:
    """``ccrp-serve unix:<socket> --workers 1`` as a child process."""

    def __init__(self, base: Path, cache: Path) -> None:
        self.socket = base / "s.sock"
        self.address = f"unix:{os.path.relpath(self.socket)}"
        self.log = base / "server.log"
        self.cache = cache
        self.proc: subprocess.Popen | None = None

    def start(self, timeout: float = 60.0) -> None:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        with self.log.open("wb") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.tools.serve", self.address, "--workers", "1"],
                env=program_env(self.cache),
                stdout=sink,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                # A shell without job control starts background jobs with SIGINT ignored;
                # the server shuts down on SIGINT, so it gets the default back.
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
            )
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"ccrp-serve exited {self.proc.returncode}; see {self.log}")
            try:
                with ServiceClient(self.address, timeout=5) as client:
                    if client.ping():
                        break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"ccrp-serve not ready after {timeout}s; see {self.log}")
                time.sleep(0.05)

    def warm_up(self, requests) -> None:
        """Send ``requests`` one at a time before measuring, so the worker's lazy set-up is done."""
        from repro.service.client import ServiceClient

        with ServiceClient(self.address, timeout=60) as client:
            for op, params, payload in requests:
                client.request(op, params, payload)

    def stats(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient(self.address, timeout=30) as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its workers."""
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return sum(_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Interrupt the server (it drains and shuts its pool down); then make sure its group is gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        kill_group(self.proc)
        self.proc = None


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """What one schedule of requests saw, from the generator's side."""

    requests: list[tuple[str, dict, bytes]]
    start: float = 0.0
    due: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    done: list[float | None] = field(default_factory=list)
    responses: list[tuple[dict, bytes] | None] = field(default_factory=list)
    encode_ms: list[float] = field(default_factory=list)
    decode_ms: list[float] = field(default_factory=list)
    max_outstanding: int = 0

    def latencies(self, op: str | None = None) -> list[float]:
        """Due-to-reply latencies, in ms, of the requests that got a valid reply."""
        return [
            (self.done[index] - self.due[index]) * 1e3
            for index, (request_op, _, _) in enumerate(self.requests)
            if (op is None or request_op == op) and self.responses[index] and self.responses[index][0].get("ok")
        ]

    @property
    def wall_s(self) -> float:
        """Schedule start to the last reply."""
        finished = [stamp for stamp in self.done if stamp is not None]
        return (max(finished) if finished else self.due[-1]) - self.start

    def within(self, limit_ms: float) -> bool:
        """Every request answered, the generator on time, p99 and the last tenth's median within ``limit_ms``."""
        latencies = self.latencies()
        if len(latencies) < len(self.requests) or self.generator_behind:
            return False
        last_tenth = latencies[-max(1, len(latencies) // 10) :]
        return reportable(latencies, 0.99) <= limit_ms and statistics.median(last_tenth) <= limit_ms

    @property
    def lag_p99_ms(self) -> float:
        return stats.percentile(self.lag_ms, 0.99)

    @property
    def generator_behind(self) -> bool:
        return self.lag_p99_ms > LAG_LIMIT_MS

    def errors(self) -> dict[str, int]:
        codes: dict[str, int] = {}
        for response in self.responses:
            if response is None:
                codes["no_reply"] = codes.get("no_reply", 0) + 1
            elif not response[0].get("ok"):
                code = (response[0].get("error") or {}).get("code", "internal")
                codes[code] = codes.get(code, 0) + 1
        return codes


class Generator:
    """Sends phases over :data:`CONNECTIONS` pipelined connections; ids are unique per run."""

    def __init__(self, socket: Path) -> None:
        self.socket = socket
        self.next_id = 1

    def run(self, requests, offsets=None, window: int | None = None, drain_timeout: float = 120.0) -> Phase:
        """Send one phase: open loop at ``offsets``, or closed with ``window`` requests outstanding.

        In the closed form a request is due when it is sent.  The collector
        is off meanwhile: a full collection over set-up's heap stalls the
        sender for tens of milliseconds.
        """
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            return asyncio.run(self._run(requests, offsets, window, drain_timeout))
        finally:
            gc.enable()
            gc.unfreeze()

    async def _run(self, requests, offsets, window: int | None, drain_timeout: float) -> Phase:
        from repro.service.client import idempotency_key
        from repro.service.protocol import FrameDecoder, encode_frame

        count = len(requests)
        phase = Phase(requests, done=[None] * count, responses=[None] * count)
        pending: dict[int, int] = {}
        finished = asyncio.Event()
        freed = asyncio.Event()
        sent_all = False
        connections = [
            await asyncio.open_unix_connection(str(self.socket), limit=1 << 22) for _ in range(CONNECTIONS)
        ]

        async def read_replies(reader: asyncio.StreamReader) -> None:
            decoder = FrameDecoder()
            while True:
                data = await reader.read(1 << 18)
                if not data:
                    return
                arrived = time.perf_counter()
                started = time.perf_counter()
                decoder.feed(data)
                frames = []
                while (frame := decoder.next_frame()) is not None:
                    frames.append(frame)
                if frames:
                    phase.decode_ms.append((time.perf_counter() - started) * 1e3 / len(frames))
                for header, payload in frames:
                    index = pending.pop(header.get("id"), None)
                    if index is not None:
                        phase.done[index] = arrived
                        phase.responses[index] = (header, payload)
                freed.set()
                if sent_all and not pending:
                    finished.set()

        readers = [asyncio.create_task(read_replies(reader)) for reader, _ in connections]
        start = phase.start = time.perf_counter() + (0.05 if window is None else 0.0)
        try:
            for index, (op, params, payload) in enumerate(requests):
                if window is None:
                    due = start + offsets[index]
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                else:
                    while len(pending) >= window:
                        freed.clear()
                        await freed.wait()
                    due = time.perf_counter()
                sent = time.perf_counter()
                phase.due.append(due)
                phase.lag_ms.append(max(0.0, sent - due) * 1e3)
                request_id = self.next_id
                self.next_id += 1
                header = {
                    "id": request_id,
                    "op": op,
                    "params": params,
                    "client": "e2ebench",
                    "idempotency": idempotency_key(op, params, payload),
                }
                frame = encode_frame(header, payload)
                phase.encode_ms.append((time.perf_counter() - sent) * 1e3)
                pending[request_id] = index
                phase.max_outstanding = max(phase.max_outstanding, len(pending))
                writer = connections[index % CONNECTIONS][1]
                writer.write(frame)
                if writer.transport.get_write_buffer_size() > 1 << 20:
                    await writer.drain()
            sent_all = True
            if pending:
                await asyncio.wait_for(finished.wait(), drain_timeout)
        except asyncio.TimeoutError:
            pass  # unanswered requests stay None and count as failures
        finally:
            for _, writer in connections:
                writer.close()
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)
            for _, writer in connections:
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
        return phase


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def reportable(samples: list[float], fraction: float) -> float:
    """The percentile, or 0 when fewer than ten samples lie beyond it (failed requests leave fewer)."""
    if stats.samples_beyond(len(samples), fraction) < stats.MIN_BEYOND:
        return 0.0
    return stats.percentile(samples, fraction)


def every_phase(result: dict, op: str) -> list[float]:
    """Client latencies of ``op`` over every phase, as the server's ``stats`` cover every phase."""
    return [latency for phase in result["phases"].values() for latency in phase.latencies(op)]


class ServiceWorkload:
    name = "service-mixed"

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.failures: dict[str, list[str]] = {}
        self.attempted = 0

    def run(self) -> dict:
        base = fresh_dir(WORK / "service")
        cache = fresh_dir(base / "cache")
        os.environ["CCRP_CACHE_DIR"] = str(cache)

        started = time.perf_counter()
        inputs = Inputs(self.seed)
        server = Server(base, cache)
        try:
            server.start()
            # The worker trains its standard code while this process builds the studies and inputs.
            with ThreadPoolExecutor(1) as warmer:
                code_ready = warmer.submit(server.warm_up, inputs.code_warm_up())
                inputs.warm_studies()
                burst_requests = [inputs.requests(BURST_REQUESTS) for _ in range(MIN_BURSTS)]
                if self.trace:
                    rungs = [(inputs.requests(OPEN_REQUESTS), inputs.schedule(OPEN_REQUESTS)) for _ in LADDER]
                code_ready.result()
            server.warm_up(inputs.study_warm_up())
            setup_s = time.perf_counter() - started
            log(f"{self.name}: set up in {setup_s:.2f}s")
            generator = Generator(server.socket)

            bursts: list[Phase] = []
            while len(bursts) < MIN_BURSTS or sum(burst.wall_s for burst in bursts) < self.seconds:
                # Past the set-up's bursts, the next one's inputs are built here, between timed bursts.
                requests = burst_requests[len(bursts)] if len(bursts) < MIN_BURSTS else inputs.requests(BURST_REQUESTS)
                bursts.append(generator.run(requests, window=BURST_WINDOW))
                log(f"{self.name}: burst of {BURST_REQUESTS} with {BURST_WINDOW} outstanding in {bursts[-1].wall_s:.3f}s")
            result = {"setup_s": setup_s, "bursts": len(bursts), "burst_s": statistics.median(burst.wall_s for burst in bursts)}
            phases = {f"burst{index}": burst for index, burst in enumerate(bursts)}
            if self.trace:
                phases.update(self._ladder(server, generator, rungs, result))
            result["peak_rss_mb"] = server.peak_rss_mb()
        finally:
            server.stop()

        started = time.perf_counter()
        result["lib_ms"] = self._verify(phases)
        result["phases"] = phases
        log(f"{self.name}: {self.attempted} replies checked against the library in {time.perf_counter() - started:.2f}s")
        result["cache_mb"] = tree_mb(cache)
        return result

    def _ladder(self, server: Server, generator: Generator, rungs, result: dict) -> dict[str, Phase]:
        """Offer each rung at its :data:`LADDER` share of the bursts' rate; stats go into ``result``."""
        capacity = BURST_REQUESTS / result["burst_s"]
        phases: dict[str, Phase] = {}
        result.update(rungs=[], max_rps=0.0)
        for share, (requests, offsets) in zip(LADDER, rungs):
            rate = share * capacity
            time.sleep(0.2)
            phase = generator.run(requests, [offset / rate for offset in offsets])
            phases[f"open{share:g}"] = phase
            result["rungs"].append((share, rate, phase))
            within = phase.within(LATENCY_LIMIT_MS)
            log(
                f"{self.name}: open loop at {rate:.1f} req/s ({share:g} of the bursts' rate) in {phase.wall_s:.2f}s, "
                f"p99 {reportable(phase.latencies(), 0.99):.1f}ms, generator lag p99 {phase.lag_p99_ms:.2f}ms, "
                f"errors {phase.errors() or 'none'}, {'within' if within else 'beyond'} {LATENCY_LIMIT_MS:g}ms"
            )
            if phase.generator_behind:
                log(
                    f"{self.name}: the generator fell behind (lag p99 {phase.lag_p99_ms:.1f} ms > {LAG_LIMIT_MS} ms); "
                    "this rung's latencies are not a valid sample (gen.behind = 1)"
                )
            if not within:
                break
            result["max_rps"] = rate
        result["server"] = server.stats()
        return phases

    def _verify(self, phases: dict[str, Phase]) -> dict[str, list[float]]:
        """Check every response against the library; returns the library's times by op."""
        first: dict[tuple, bytes] = {}
        checks: list[tuple[tuple, str, dict, bytes]] = []
        for label, phase in phases.items():
            for index, (op, params, payload) in enumerate(phase.requests):
                response = phase.responses[index]
                name = f"{label}/{op}#{index}"
                self.attempted += 1
                if response is None or not response[0].get("ok"):
                    code = "no_reply" if response is None else (response[0].get("error") or {}).get("code")
                    self.failures[name] = [f"no valid reply ({code})"]
                    continue
                key = request_key(op, params, payload)
                got = gate.canonical_response(response[0].get("result", {}), response[1])
                if key not in first:
                    first[key] = got
                    checks.append((key, op, params, payload))
                elif first[key] != got:
                    self.failures[name] = ["repeat differs from the first reply to the same request"]
        lib_ms: dict[str, list[float]] = {"compress": [], "decompress": [], "simulate": []}
        for key, op, params, payload in checks:
            started = time.perf_counter()
            outcome = library_call(op, params, payload)
            lib_ms[op].append((time.perf_counter() - started) * 1e3)
            if outcome[0] != "ok":
                self.failures[f"library/{op}/{key[2][:12]}"] = [f"library call failed: {outcome[1]}"]
            elif gate.canonical_response(outcome[1], outcome[2]) != first[key]:
                self.failures[f"library/{op}/{key[2][:12]}"] = ["reply differs from the library call"]
        return lib_ms

    def end_to_end(self, result: dict) -> dict:
        return {
            "wall_s": (result["burst_s"], "s"),
            "setup_s": (result["setup_s"], "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
            "cache_mb": (result["cache_mb"], "MiB"),
        }

    def per_layer(self, result: dict) -> dict:
        _, offered_rps, opened = result["rungs"][0]
        rungs = [phase for _, _, phase in result["rungs"]]
        server = result["server"]
        counters = server.get("counters", {})
        observations = server.get("observations", {})
        latencies = opened.latencies()
        metrics = {
            "service.p50_ms": (stats.percentile(latencies, 0.5), "ms"),
            "service.p99_ms": (reportable(latencies, 0.99), "ms"),
            "service.samples": (len(latencies), "count"),
            "service.saturated_rps": (BURST_REQUESTS / result["burst_s"], "1/s"),
            "service.offered_rps": (offered_rps, "1/s"),
            "service.max_rps": (result["max_rps"], "1/s"),
        }
        for op in ("compress", "decompress", "simulate"):
            lib = result["lib_ms"][op]
            metrics[f"service.lib.{op}_ms"] = (statistics.median(lib) if lib else 0.0, "ms")
            server_ms = observations.get(f"latency.{op}", {})
            metrics[f"service.server_ms.{op}.p50"] = (server_ms.get("p50", 0.0), "ms")
            metrics[f"service.server_ms.{op}.p99"] = (server_ms.get("p99", 0.0), "ms")
            client = every_phase(result, op)
            client_p50 = stats.percentile(client, 0.5) if client else 0.0
            metrics[f"service.wire_ms.{op}"] = (client_p50 - server_ms.get("p50", 0.0), "ms")
        batches = counters.get("service.batches", 0)
        hits, misses = counters.get("service.cache.hit", 0), counters.get("service.cache.miss", 0)
        metrics.update(
            {
                "service.client.encode_ms": (statistics.median(opened.encode_ms), "ms"),
                "service.client.decode_ms": (statistics.median(opened.decode_ms), "ms"),
                "service.pending.max": (opened.max_outstanding, "count"),
                "service.batches": (batches, "count"),
                "service.batch_size.mean": (counters.get("service.batched_jobs", 0) / batches if batches else 0.0, "count"),
                "service.coalesced": (counters.get("service.coalesced", 0), "count"),
                "service.cache.hit": (hits, "count"),
                "service.cache.miss": (misses, "count"),
                "service.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
                "service.overloaded": (counters.get("service.overloaded", 0), "count"),
                "gen.lag_ms.p99": (max(phase.lag_p99_ms for phase in rungs), "ms"),
                "gen.behind": (sum(phase.generator_behind for phase in rungs), "count"),
            }
        )
        return metrics

    def tree(self, result: dict) -> list[str]:
        opened = result["rungs"][0][2]
        lines = [f"bursts: {result['bursts']} x {BURST_REQUESTS} requests, median {result['burst_s']:.3f}s"]
        for share, rate, phase in result["rungs"]:
            latencies = phase.latencies()
            tail = stats.tail_fraction(len(latencies))
            lines.append(
                f"open loop: {len(phase.requests)} requests at {rate:.1f} req/s ({share:g} of the bursts' rate), "
                f"wall {phase.wall_s:.3f}s, {len(latencies)} valid replies, p50 {stats.percentile(latencies, 0.5):.1f}ms"
                + (f", p{100 * tail:g} {stats.percentile(latencies, tail):.1f}ms" if tail else ", no reportable tail")
            )
        lines.append(f"max_rps within {LATENCY_LIMIT_MS:g}ms: {result['max_rps']:.1f} req/s; per op (first rung and all phases):")
        for op in ("compress", "decompress", "simulate"):
            client = every_phase(result, op)
            server_ms = result["server"].get("observations", {}).get(f"latency.{op}", {})
            lib = result["lib_ms"][op]
            lines.append(
                f"  {op:<11} open-loop p50 {stats.percentile(opened.latencies(op), 0.5):8.3f}ms  all phases: "
                f"n={len(client):<4} client p50 {stats.percentile(client, 0.5):8.3f}ms  server p50 {server_ms.get('p50', 0.0):8.3f}ms  library {statistics.median(lib) if lib else 0.0:8.3f}ms"
            )
        return lines

    def counts(self) -> tuple[int, int]:
        return self.attempted, len(self.failures)
