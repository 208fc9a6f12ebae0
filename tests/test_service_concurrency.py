"""Concurrency-grade tests for the compression service.

Every test synchronises on *observable structure*, never on elapsed
time: named-FIFO rendezvous prove a job is inside a worker, and
bounded ``stats`` round trips prove the server reached a state.  There
is not a single ``sleep`` in this file.

Covered contracts:

* single-flight coalescing — N identical concurrent ``simulate``
  requests execute once, coalesce N−1 times, and build each disk
  artifact exactly once;
* backpressure — past ``queue_limit`` pending jobs, new requests are
  answered ``overloaded`` immediately, never buffered;
* graceful shutdown — in-flight work completes and its response is
  delivered, while new connections are refused;
* worker crash — an injected worker death errors *that* request with a
  :class:`~repro.core.pool.FailureReport`-style attribution, the pool
  restarts, and the next request succeeds.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path

import pytest

from repro.core import artifacts
from repro.errors import ProtocolError, ServiceError

from service_harness import LiveService


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A cold artifact cache the forked workers inherit."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("CCRP_CACHE_DIR", str(cache_dir))
    artifacts.clear()
    yield cache_dir
    artifacts.clear()


def _pkl_count(cache_dir: Path) -> int:
    """Disk artifacts built, excluding the shared superops sub-cache."""
    return sum(
        1
        for path in cache_dir.rglob("*.pkl")
        if "superops" not in path.parts
    )


SIM = {"workload": "eightq", "cache_bytes": 512, "clb_entries": 8}


class TestCoalescing:
    def test_identical_inflight_simulates_run_once(self, tmp_path, fresh_cache):
        clients = 5
        with LiveService(
            str(tmp_path), workers=2, batch_max=4, queue_limit=16, debug=True
        ) as live:
            gate = live.gate()
            params = dict(SIM, _gate=gate.params)
            first = live.client(name="c0")
            first.send("simulate", params)
            # The worker is now provably inside the gated job.
            gate.wait_entered()
            others = [live.client(name=f"c{i}") for i in range(1, clients)]
            for client in others:
                client.send("simulate", params)
            # All five requests admitted: four coalesced onto the one
            # in-flight execution while it is still gated.
            live.wait_stats(
                lambda s: s["counters"].get("requests.simulate", 0) == clients
                and s["counters"].get("service.coalesced", 0) == clients - 1,
                what="5 simulates with 4 coalesced",
            )
            gate.release_job()
            results = []
            for client in [first, *others]:
                _, header, _ = client.recv()
                assert header["ok"], header
                results.append(header["result"])
                client.close()
            # Everyone saw the same execution's answer.
            assert all(result == results[0] for result in results)
            stats = live.wait_stats(
                lambda s: s["server"]["pending"] == 0, what="drained"
            )
        # One execution total — not one per request.
        assert stats["counters"]["service.batched_jobs"] == 1
        assert stats["counters"]["service.coalesced"] == clients - 1
        # ... and each artifact hit the disk cache exactly once.
        builds = stats["counters"]["artifacts.build"]
        assert builds >= 1
        assert builds == _pkl_count(fresh_cache)

    def test_sequential_identical_requests_do_not_coalesce(self, tmp_path, fresh_cache):
        # Coalescing is an *in-flight* property: back-to-back repeats
        # execute separately (hitting warm caches instead).  The durable
        # response cache would answer the repeat without a batch, so it
        # is disabled to observe the coalescing layer in isolation.
        with LiveService(
            str(tmp_path), workers=1, debug=True, response_cache=False
        ) as live:
            with live.client() as client:
                first = client.simulate(**SIM)
                second = client.simulate(**SIM)
            assert first == second
            stats = live.wait_stats(
                lambda s: s["counters"].get("requests.simulate", 0) == 2,
                what="2 simulates",
            )
        assert stats["counters"].get("service.coalesced", 0) == 0
        assert stats["counters"]["service.batched_jobs"] == 2


class TestBackpressure:
    def test_overloaded_instead_of_unbounded_queue(self, tmp_path, fresh_cache):
        with LiveService(
            str(tmp_path), workers=1, batch_max=1, queue_limit=2, debug=True
        ) as live:
            gate = live.gate()
            running = live.client(name="running")
            running.send("compress", {"_gate": gate.params}, b"a" * 256)
            gate.wait_entered()
            queued = live.client(name="queued")
            queued.send("compress", {}, b"b" * 256)
            live.wait_stats(
                lambda s: s["server"]["pending"] == 2, what="2 pending jobs"
            )
            # The admission gate is full: an immediate, explicit refusal.
            with live.client(name="refused") as refused:
                with pytest.raises(ServiceError) as excinfo:
                    refused.request("compress", {}, b"c" * 256)
            assert excinfo.value.code == "overloaded"
            # Refusal did not disturb admitted work.
            gate.release_job()
            for client in (running, queued):
                _, header, _ = client.recv()
                assert header["ok"], header
                client.close()
            stats = live.wait_stats(
                lambda s: s["server"]["pending"] == 0, what="drained"
            )
        assert stats["counters"]["service.overloaded"] == 1
        assert stats["counters"]["requests.compress"] == 3


class TestGracefulShutdown:
    def test_inflight_completes_and_new_connections_refused(self, tmp_path, fresh_cache):
        live = LiveService(str(tmp_path), workers=1, debug=True).start()
        try:
            gate = live.gate()
            inflight = live.client(name="inflight")
            bystander = live.client(name="bystander")
            inflight.send("compress", {"_gate": gate.params}, b"d" * 512)
            gate.wait_entered()
            stopping = live.stop_async()
            # The listener closes before the drain: new connections get
            # refused while the gated job is still running.  (The loop
            # is a liveness bound on observing the close, not a timing
            # assertion — the outcome is required, whenever it happens.)
            deadline = time.monotonic() + 60
            refused = False
            while time.monotonic() < deadline:
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(live.socket_path)
                except (ConnectionRefusedError, FileNotFoundError):
                    refused = True
                    break
                finally:
                    probe.close()
            assert refused, "listener still accepting during shutdown"
            assert not stopping.done(), "stop() finished with a job in flight"
            # Already-connected clients submitting NEW jobs are turned
            # away explicitly...
            with pytest.raises(ServiceError) as excinfo:
                bystander.request("compress", {}, b"e" * 64)
            assert excinfo.value.code == "shutting_down"
            bystander.close()
            # ... while the in-flight job finishes and its response is
            # delivered before the connection closes.
            gate.release_job()
            _, header, payload = inflight.recv()
            assert header["ok"], header
            assert header["result"]["original_size"] == 512
            stopping.result(timeout=120)
            # After the drain the server closes the connection cleanly.
            with pytest.raises(ProtocolError):
                inflight.recv()
            inflight.close()
        finally:
            live.end_loop()


class TestWorkerCrash:
    def test_crash_is_attributed_and_pool_recovers(self, tmp_path, fresh_cache):
        with LiveService(
            str(tmp_path), workers=2, batch_max=1, queue_limit=16, debug=True
        ) as live:
            with live.client(name="victim") as victim:
                with pytest.raises(ServiceError) as excinfo:
                    victim.request("crash", {})
                error = excinfo.value
                assert error.code == "worker_crash"
                # The FailureReport discipline: structured attribution,
                # not a bare string.
                assert error.failure["error_type"] == "BrokenProcessPool"
                assert error.failure["detail"].startswith("crash")
                assert error.failure["attempts"] == 1
                # The victim's *connection* survives; only the request
                # failed.
                assert victim.ping()
            live.wait_stats(
                lambda s: s["counters"].get("service.worker_restarts", 0) == 1
                and s["server"]["pool_generation"] == 1,
                what="pool restart",
            )
            # The restarted pool serves real work.
            with live.client(name="survivor") as survivor:
                text = bytes(range(128)) * 4
                meta, blob = survivor.compress(text)
                assert survivor.decompress(meta, blob) == text
            stats = live.wait_stats(
                lambda s: s["server"]["pending"] == 0, what="drained"
            )
        assert stats["counters"]["service.worker_crashes"] == 1
        assert stats["counters"]["requests.crash"] == 1

    def test_crash_does_not_fail_other_connections_requests(self, tmp_path, fresh_cache):
        # A client whose request is admitted *after* the crash never
        # sees it: the pool-ready gate holds new chunks during restart.
        with LiveService(
            str(tmp_path), workers=1, batch_max=1, queue_limit=16, debug=True
        ) as live:
            crasher = live.client(name="crasher")
            crasher.send("crash", {})
            innocent = live.client(name="innocent")
            innocent.send("compress", {}, b"f" * 300)
            _, crash_header, _ = crasher.recv()
            assert crash_header["ok"] is False
            assert crash_header["error"]["code"] == "worker_crash"
            _, ok_header, payload = innocent.recv()
            assert ok_header["ok"], ok_header
            crasher.close()
            innocent.close()
