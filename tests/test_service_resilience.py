"""Resilience tests: deadlines, retries, the durable response cache,
typed errors, payload limits, and leak-free disconnects.

Same discipline as the concurrency suite: synchronisation is structural
(FIFO gates, bounded stats round trips), never a bare sleep.  The one
place wall-clock time appears — waiting for a queued job's deadline to
pass — it is bounded by live stats round trips against the test's own
monotonic clock, not by guessing.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.metrics import MetricsRegistry
from repro.errors import ProtocolError, ServiceError
from repro.service import protocol
from repro.service.client import ServiceClient, idempotency_key
from repro.service.protocol import HEADER_STRUCT, FrameDecoder, encode_frame
from repro.service.server import RESPONSE_KIND

from service_harness import LiveService

TEXT = bytes(range(64)) * 48 + b"\x00" * 256

SIM = {"workload": "eightq", "cache_bytes": 512, "clb_entries": 8}


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A cold artifact + response cache shared by server restarts."""
    from repro.core import artifacts

    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("CCRP_CACHE_DIR", str(cache_dir))
    artifacts.clear()
    yield cache_dir
    artifacts.clear()


class TestDeadlines:
    def test_expired_on_arrival_is_refused_without_dispatch(
        self, tmp_path, fresh_cache
    ):
        with LiveService(str(tmp_path), workers=1) as live:
            with live.client() as client:
                # send() skips the client-side budget check, so this
                # exercises the *server's* admission refusal.
                client.send("simulate", dict(SIM), deadline_ms=0)
                _, header, _ = client.recv()
                assert not header["ok"]
                assert header["error"]["code"] == "deadline_exceeded"
                assert "not dispatched" in header["error"]["message"]
                stats = client.stats()
        assert stats["counters"]["service.deadline_exceeded"] == 1
        # Refused on arrival: no batch was ever formed for it.
        assert stats["counters"].get("service.batched_jobs", 0) == 0

    def test_deadline_counter_survives_snapshot_merge(self, tmp_path, fresh_cache):
        with LiveService(str(tmp_path), workers=1) as live:
            with live.client() as client:
                client.send("simulate", dict(SIM), deadline_ms=-5)
                client.recv()
                stats = client.stats()
        # Counters add on merge, so the refusal survives aggregation
        # into any downstream registry (the sweep/bench pattern).
        downstream = MetricsRegistry()
        downstream.count("service.deadline_exceeded", 2)
        downstream.merge(stats)
        assert downstream.counter("service.deadline_exceeded") == 3

    def test_queued_job_is_shed_at_dispatch(self, tmp_path, fresh_cache):
        deadline_ms = 40.0
        with LiveService(
            str(tmp_path), workers=1, debug=True, response_cache=False
        ) as live:
            # Warm the single worker's in-process code cache so the
            # gated job finishes promptly once released.
            with live.client(name="warmup") as warm:
                warm.compress(b"w" * 64)
            gate = live.gate()
            blocker = live.client(name="blocker")
            victim = live.client(name="victim")
            results: list = []
            # The gated job occupies the only worker chunk slot...
            blocker.send("compress", {"_gate": gate.params}, b"g" * 128)
            gate.wait_entered()
            # ... so the victim's job waits in the queue while its
            # deadline runs out.
            victim_thread = threading.Thread(
                target=lambda: results.append(
                    _request_error(victim, "simulate", dict(SIM), deadline_ms)
                )
            )
            victim_thread.start()
            live.wait_stats(
                lambda s: s["counters"].get("requests.simulate", 0) == 1,
                what="victim admitted",
            )
            # Let the deadline lapse — bounded stats round trips against
            # our own clock, not a sleep.
            lapse = time.monotonic() + deadline_ms / 1000.0 + 0.05
            live.wait_stats(
                lambda s: time.monotonic() >= lapse, what="deadline lapsed"
            )
            gate.release_job()
            victim_thread.join(60)
            assert not victim_thread.is_alive()
            _, header, _ = blocker.recv()
            assert header["ok"]
            blocker.close()
            victim.close()
            stats = live.wait_stats(
                lambda s: s["counters"].get("service.deadline_exceeded", 0) >= 1,
                what="shed counted",
            )
        (error,) = results
        assert isinstance(error, ServiceError)
        assert error.code == "deadline_exceeded"
        assert "shed before dispatch" in str(error)
        # Only the warm-up and the gated job ever reached a worker
        # batch; the shed job never did.
        assert stats["counters"]["service.batched_jobs"] == 2

    def test_client_side_budget_exhaustion_is_local(self, tmp_path, fresh_cache):
        with LiveService(str(tmp_path), workers=1) as live:
            with live.client() as client:
                before = client.stats()["counters"].get("requests.simulate", 0)
                with pytest.raises(ServiceError) as caught:
                    client.request("simulate", dict(SIM), deadline_ms=-1)
                after = client.stats()["counters"].get("requests.simulate", 0)
        assert caught.value.code == "deadline_exceeded"
        assert caught.value.attempts == 0
        assert caught.value.op == "simulate"
        # The request never left the client.
        assert before == after == 0


def _request_error(client: ServiceClient, op: str, params: dict, deadline_ms):
    try:
        return client.request(op, params, deadline_ms=deadline_ms)
    except ServiceError as error:
        return error


class TestDurableResponseCache:
    def test_repeat_hits_cache_without_new_batches(self, tmp_path, fresh_cache):
        with LiveService(str(tmp_path), workers=1) as live:
            with live.client() as client:
                first = client.compress(TEXT)
                second = client.compress(TEXT)
                stats = client.stats()
        assert first == second
        assert stats["counters"]["service.cache.miss"] == 1
        assert stats["counters"]["service.cache.hit"] == 1
        assert stats["counters"]["service.cache.store"] == 1
        assert stats["counters"]["service.batched_jobs"] == 1

    def test_restarted_server_replays_byte_identically(self, tmp_path, fresh_cache):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with LiveService(str(tmp_path / "a"), workers=1) as live_a:
            with live_a.client() as client:
                original = client.compress(TEXT)
        # Same CCRP_CACHE_DIR, brand-new server process state.
        with LiveService(str(tmp_path / "b"), workers=1) as live_b:
            with live_b.client() as client:
                replay = client.compress(TEXT)
                stats = client.stats()
        assert replay == original
        assert stats["counters"]["service.cache.hit"] == 1
        # Zero new executions: the replay never formed a worker batch.
        assert stats["counters"].get("service.batched_jobs", 0) == 0
        assert stats["counters"].get("service.batches", 0) == 0

    def test_corrupt_cache_entry_is_evicted_and_recomputed(
        self, tmp_path, fresh_cache
    ):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with LiveService(str(tmp_path / "a"), workers=1) as live_a:
            with live_a.client() as client:
                original = client.compress(TEXT)
        entries = list(fresh_cache.rglob(f"{RESPONSE_KIND}/*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(b"not a pickle at all")
        with LiveService(str(tmp_path / "b"), workers=1) as live_b:
            with live_b.client() as client:
                recomputed = client.compress(TEXT)
                stats = client.stats()
        # Served correct bytes by recomputing, never the corrupt entry.
        assert recomputed == original
        assert stats["counters"]["service.cache.miss"] == 1
        assert stats["counters"]["service.batched_jobs"] == 1

    def test_restart_after_a_worker_code_edit_recomputes(
        self, tmp_path, fresh_cache, edit_source
    ):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with LiveService(str(tmp_path / "a"), workers=1) as live_a:
            with live_a.client() as client:
                original = client.compress(TEXT)
        edit_source("compression/block.py")
        with LiveService(str(tmp_path / "b"), workers=1) as live_b:
            with live_b.client() as client:
                recomputed = client.compress(TEXT)
                stats = client.stats()
        # The stored response belongs to the old code: never replayed.
        assert recomputed == original
        assert stats["counters"].get("service.cache.hit", 0) == 0
        assert stats["counters"]["service.cache.miss"] == 1
        assert stats["counters"]["service.batched_jobs"] == 1
        assert len(list(fresh_cache.rglob(f"{RESPONSE_KIND}/*.pkl"))) == 2

    def test_responses_carry_a_verified_crc(self, tmp_path, fresh_cache):
        with LiveService(str(tmp_path), workers=1) as live:
            with live.client() as client:
                client.send("compress", {}, TEXT)
                _, header, payload = client.recv()
        assert header["ok"]
        assert header["crc32"] == protocol.payload_digest(payload)
        # The client-side verification catches a damaged payload.
        with pytest.raises(ProtocolError, match="CRC-32"):
            ServiceClient.verify_payload(header, payload + b"\x00")

    def test_gated_and_crash_ops_never_cached(self, tmp_path, fresh_cache):
        with LiveService(str(tmp_path), workers=1, debug=True) as live:
            gate = live.gate()
            with live.client() as client:
                client.send("compress", {"_gate": gate.params}, b"h" * 64)
                gate.wait_entered()
                gate.release_job()
                _, header, _ = client.recv()
                assert header["ok"]
                stats = client.stats()
        assert "service.cache.store" not in stats["counters"]
        assert "service.cache.miss" not in stats["counters"]


class TestRetries:
    def test_seeded_backoff_schedule_is_deterministic(self, tmp_path, fresh_cache):
        def schedule(seed: int) -> list[float]:
            recorded: list[float] = []
            with LiveService(str(tmp_path), workers=1) as live:
                client = live.client(
                    retries=4, backoff_base=0.05, backoff_max=0.2, backoff_seed=seed
                )
                original_sleep = time.sleep
                time.sleep = recorded.append
                try:
                    for attempt in range(5):
                        client._backoff(attempt, budget=None)
                finally:
                    time.sleep = original_sleep
                client.close()
            return recorded

        first = schedule(1234)
        second = schedule(1234)
        different = schedule(4321)
        assert first == second
        assert first != different
        # Capped exponential shape: delays never exceed the cap, and the
        # pre-jitter envelope doubles until it hits it.
        assert all(0 <= delay <= 0.2 for delay in first)

    def test_retry_after_worker_crash_is_transparent(self, tmp_path, fresh_cache):
        with LiveService(str(tmp_path), workers=1, debug=True) as live:
            expected = None
            with live.client() as reference:
                expected = reference.compress(TEXT)
            with live.client(
                retries=2, backoff_base=0.0, backoff_seed=1
            ) as client:
                # Crash the pool, then immediately request work: the
                # crash error is retryable and the retry succeeds.
                with pytest.raises(ServiceError):
                    client.request("crash")
                assert client.compress(TEXT) == expected

    def test_unavailable_endpoint_is_a_typed_error(self, tmp_path):
        with pytest.raises(ServiceError) as caught:
            ServiceClient(f"unix:{tmp_path}/nowhere.sock")
        error = caught.value
        assert error.code == "unavailable"
        assert error.op == "connect"
        assert error.attempts == 1
        assert str(tmp_path) in error.address

    def test_idempotency_key_matches_content_not_identity(self):
        key = idempotency_key("compress", {"alignment": 1}, b"abc")
        assert key == idempotency_key("compress", {"alignment": 1}, b"abc")
        assert key != idempotency_key("compress", {"alignment": 2}, b"abc")
        assert key != idempotency_key("compress", {"alignment": 1}, b"abd")

    def test_requests_carry_the_idempotency_key(self, tmp_path, fresh_cache):
        # Snoop the wire: the client stamps every request header.
        captured: dict = {}
        original = encode_frame

        def snoop(header, payload=b""):
            captured.update(header)
            return original(header, payload)

        import repro.service.client as client_module

        with LiveService(str(tmp_path), workers=1) as live:
            client_module.encode_frame = snoop
            try:
                with live.client() as client:
                    client.ping()
            finally:
                client_module.encode_frame = original
        assert captured["idempotency"] == idempotency_key("ping", {}, b"")


class TestPayloadLimits:
    def test_client_refuses_oversized_payload_before_sending(
        self, tmp_path, fresh_cache, monkeypatch
    ):
        with LiveService(str(tmp_path), workers=1) as live:
            with live.client() as client:
                monkeypatch.setattr(protocol, "MAX_PAYLOAD_BYTES", 1024)
                with pytest.raises(ServiceError) as caught:
                    client.compress(b"x" * 2048)
                monkeypatch.undo()
                # Nothing was sent: the connection is still usable.
                assert client.ping()
        error = caught.value
        assert error.code == "too_large"
        assert "1024-byte" in str(error)
        assert error.op == "compress"

    def test_server_refuses_oversized_declaration_and_keeps_serving(
        self, tmp_path, fresh_cache, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_PAYLOAD_BYTES", 4096)
        with LiveService(str(tmp_path), workers=1) as live:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(60)
            sock.connect(live.socket_path)
            try:
                # Hand-craft a frame declaring a payload past the limit
                # (the client would refuse to send this itself).
                header_bytes = b'{"id":1,"op":"ping","params":{}}'
                sock.sendall(
                    HEADER_STRUCT.pack(
                        protocol.MAGIC, protocol.VERSION, 0, len(header_bytes), 5000
                    )
                    + header_bytes
                    + b"y" * 5000
                )
                decoder = FrameDecoder()
                refusal = None
                while refusal is None:
                    decoder.feed(sock.recv(1 << 16))
                    refusal = decoder.next_frame()
                error = refusal[0]["error"]
                assert error["code"] == "too_large"
                assert error["limit"] == 4096
                assert error["declared"] == 5000
                assert "4096-byte limit" in error["message"]
                # The declared body was drained: the same connection
                # still serves the next (valid) frame.
                sock.sendall(encode_frame({"id": 2, "op": "ping", "params": {}}))
                pong = None
                while pong is None:
                    decoder.feed(sock.recv(1 << 16))
                    pong = decoder.next_frame()
                assert pong[0]["ok"] and pong[0]["result"]["pong"]
            finally:
                sock.close()
            stats = live.wait_stats(
                lambda s: s["counters"].get("service.too_large", 0) == 1,
                what="too_large counted",
            )
        assert stats["counters"]["service.too_large"] == 1


class TestDisconnectHygiene:
    def test_mid_frame_disconnect_releases_everything(self, tmp_path, fresh_cache):
        with LiveService(str(tmp_path), workers=1) as live:
            # A client that dies mid-frame: half a prefix, then gone.
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(live.socket_path)
            sock.sendall(encode_frame({"id": 1, "op": "ping", "params": {}})[:7])
            sock.close()
            stats = live.wait_stats(
                lambda s: s["counters"].get("service.protocol_errors", 0) == 1,
                what="torn frame observed",
            )
            assert stats["server"]["pending"] == 0
            assert stats["server"]["inflight"] == 0

    def test_disconnect_with_job_in_flight_leaks_nothing(
        self, tmp_path, fresh_cache
    ):
        with LiveService(
            str(tmp_path), workers=1, debug=True, response_cache=False
        ) as live:
            # Warm the single worker's in-process code cache so the
            # doomed job finishes promptly once released.
            with live.client(name="warmup") as warm:
                warm.compress(b"w" * 64)
            gate = live.gate()
            doomed = live.client(name="doomed")
            doomed.send("compress", {"_gate": gate.params}, b"k" * 256)
            gate.wait_entered()
            before = live.wait_stats(
                lambda s: s["server"]["inflight"] == 1, what="job in flight"
            )
            assert before["server"]["pending"] == 1
            # The client vanishes while its job is running...
            doomed.close()
            gate.release_job()
            # ... and the server still completes the job, drops the
            # response, and releases every slot and registration.
            after = live.wait_stats(
                lambda s: s["counters"].get("service.dropped_responses", 0) == 1
                and s["server"]["pending"] == 0
                and s["server"]["inflight"] == 0,
                what="slots and registrations released",
            )
            # The queue is fully available again: a burst the exact size
            # of the limit is admitted without one 'overloaded'.
            with live.client() as probe:
                assert probe.compress(b"m" * 64)[0]["original_size"] == 64
            assert "service.overloaded" not in after["counters"]


class TestCommandLine:
    def test_unreachable_endpoint_is_one_line_and_exit_1(self, tmp_path, capsys):
        from repro.tools.client import main

        assert main([f"unix:{tmp_path}/nowhere.sock", "ping"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "[unavailable]" in lines[0]
        assert "op=connect" in lines[0]
        assert "attempts=1" in lines[0]
        assert f"{tmp_path}/nowhere.sock" in lines[0]

    def test_resilience_flags_reach_the_client(self, tmp_path, fresh_cache, capsys):
        from repro.tools.client import main

        with LiveService(str(tmp_path), workers=1) as live:
            assert (
                main(
                    [
                        live.address,
                        "--retries",
                        "2",
                        "--backoff-seed",
                        "7",
                        "--deadline-ms",
                        "60000",
                        "ping",
                    ]
                )
                == 0
            )
        assert capsys.readouterr().out.strip() == "pong"

    def test_serve_flag_disables_response_cache(self):
        from repro.tools.serve import build_parser

        args = build_parser().parse_args(["unix:/tmp/x.sock", "--no-response-cache"])
        assert args.no_response_cache
