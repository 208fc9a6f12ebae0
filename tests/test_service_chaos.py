"""Chaos tests: the service under injected faults.

A :class:`~chaos.ChaosProxy` sits between the client and a
live server, tearing frames, resetting connections, delaying traffic,
and killing workers on a *replayable* schedule.  The invariant under
test is the resilience contract of ISSUE 10: every request ends in
either a byte-identical correct response or a typed
:class:`~repro.errors.ServiceError` — never a hang, never a raw
``OSError`` traceback.

Determinism discipline: every fault placement is pure data (a
:class:`ScriptedSchedule`) or a stateless function of a seed (a
:class:`SeededSchedule`); the proxy's transcript records what actually
fired, and the seeded scenario is executed twice end-to-end to prove the
whole run replays.
"""

from __future__ import annotations

import pytest

from repro.errors import ServiceError

from chaos import DOWN, UP, ChaosAction, ScriptedSchedule, SeededSchedule
from service_harness import LiveService

#: A tiny but compressible program segment (shared by every scenario so
#: byte-identical comparisons are meaningful across servers and runs).
TEXT = bytes(range(64)) * 48 + b"\x00" * 256

SIM = {"workload": "eightq", "cache_bytes": 512, "clb_entries": 8}


def _clean_answer(live: LiveService) -> tuple[dict, bytes]:
    """The ground-truth response, fetched without any proxy in the way."""
    with live.client() as client:
        return client.compress(TEXT)


class TestScriptedFaults:
    def test_delays_do_not_change_bytes(self, tmp_path):
        schedule = ScriptedSchedule(
            {
                (0, UP, 0): ChaosAction("delay", delay=0.01),
                (0, DOWN, 0): ChaosAction("delay", delay=0.01),
            }
        )
        with LiveService(str(tmp_path), workers=1) as live:
            expected = _clean_answer(live)
            with live.chaos(schedule) as chaos:
                with chaos.client() as client:
                    assert client.compress(TEXT) == expected
        kinds = [event[3] for event in chaos.proxy.events]
        assert kinds.count("delay") == 2

    def test_truncated_response_is_retried_to_byte_identical(self, tmp_path):
        # The first connection's first response is torn mid-prefix; the
        # retry reconnects (connection 1) and must get the same bytes a
        # fault-free client gets.
        schedule = ScriptedSchedule(
            {(0, DOWN, 0): ChaosAction("truncate", keep_bytes=7)}
        )
        with LiveService(str(tmp_path), workers=1) as live:
            expected = _clean_answer(live)
            with live.chaos(schedule) as chaos:
                with chaos.client(retries=2, backoff_base=0.0, backoff_seed=7) as client:
                    assert client.compress(TEXT) == expected
        assert (0, DOWN, 0, "truncate") in chaos.proxy.events
        assert any(event[0] == 1 for event in chaos.proxy.events), (
            "the retry should have arrived on a fresh connection"
        )

    def test_reset_request_is_retried_to_byte_identical(self, tmp_path):
        schedule = ScriptedSchedule({(0, UP, 0): ChaosAction("reset")})
        with LiveService(str(tmp_path), workers=1) as live:
            expected = _clean_answer(live)
            with live.chaos(schedule) as chaos:
                with chaos.client(retries=2, backoff_base=0.0, backoff_seed=7) as client:
                    assert client.compress(TEXT) == expected

    def test_reset_without_retries_is_a_typed_error(self, tmp_path):
        schedule = ScriptedSchedule({(0, UP, 0): ChaosAction("reset")})
        with LiveService(str(tmp_path), workers=1) as live:
            with live.chaos(schedule) as chaos:
                with chaos.client(retries=0) as client:
                    with pytest.raises(ServiceError) as caught:
                        client.compress(TEXT)
        error = caught.value
        assert error.code in {"connection_lost", "protocol", "timeout"}
        assert error.op == "compress"
        assert error.attempts == 1
        assert error.address == chaos.address

    def test_worker_kill_is_invisible_to_the_caller(self, tmp_path):
        # The schedule kills a worker immediately before the request is
        # forwarded; the server restarts the pool and the caller still
        # gets the fault-free bytes, without even needing a retry.
        schedule = ScriptedSchedule({(0, UP, 0): ChaosAction("kill_worker")})
        with LiveService(str(tmp_path), workers=1, debug=True) as live:
            expected = _clean_answer(live)
            with live.chaos(schedule) as chaos:
                with chaos.client(retries=2, backoff_base=0.0, backoff_seed=7) as client:
                    assert client.compress(TEXT) == expected
            stats = live.wait_stats(
                lambda s: s["counters"].get("service.worker_restarts", 0) >= 1,
                what="pool restart observed",
            )
            assert stats["counters"]["service.worker_crashes"] >= 1


class TestSeededChaos:
    def _run_scenario(self, root, seed: int):
        """One full seeded scenario; returns (outcomes, transcript).

        Eight sequential compress requests through a proxy that delays,
        tears, and resets on the seeded schedule.  Outcomes are
        ``("ok", result, payload)`` or ``("err", code)`` — the typed
        universe; anything else escapes as a test failure.
        """
        schedule = SeededSchedule(
            seed, delay_rate=0.2, truncate_rate=0.2, reset_rate=0.1, max_delay=0.005
        )
        root.mkdir(parents=True, exist_ok=True)
        outcomes = []
        with LiveService(str(root), workers=1, response_cache=False) as live:
            with live.chaos(schedule) as chaos:
                for index in range(8):
                    # One client per request: connection numbers (and so
                    # the schedule) depend only on the request index.
                    with chaos.client(
                        retries=3, backoff_base=0.001, backoff_seed=seed + index
                    ) as client:
                        try:
                            result, payload = client.compress(TEXT + bytes([index]))
                            outcomes.append(("ok", result, payload))
                        except ServiceError as error:
                            outcomes.append(("err", error.code))
                transcript = chaos.transcript()
        return outcomes, transcript

    def test_same_seed_replays_identically(self, tmp_path):
        first = self._run_scenario(tmp_path / "a", seed=1234)
        second = self._run_scenario(tmp_path / "b", seed=1234)
        assert first == second

    def test_every_outcome_is_correct_or_typed(self, tmp_path):
        outcomes, transcript = self._run_scenario(tmp_path / "run", seed=99)
        assert len(outcomes) == 8
        injected = {event[3] for event in transcript} - {"pass"}
        assert injected, "seed 99 should inject at least one fault"
        # Cross-check the ok outcomes against a fault-free server: the
        # chaos path must yield byte-identical results.
        (tmp_path / "clean").mkdir()
        with LiveService(str(tmp_path / "clean"), workers=1) as live:
            with live.client() as client:
                for index, outcome in enumerate(outcomes):
                    if outcome[0] == "ok":
                        _, result, payload = outcome
                        assert client.compress(TEXT + bytes([index])) == (
                            result,
                            payload,
                        )
                    else:
                        assert outcome[1] in {
                            "connection_lost",
                            "protocol",
                            "timeout",
                            "unavailable",
                        }

    def test_seeded_schedule_is_a_pure_function(self):
        one = SeededSchedule(7, delay_rate=0.3, truncate_rate=0.3, reset_rate=0.2)
        two = SeededSchedule(7, delay_rate=0.3, truncate_rate=0.3, reset_rate=0.2)
        keys = [
            (conn, direction, frame)
            for conn in range(4)
            for direction in (UP, DOWN)
            for frame in range(16)
        ]
        # Query in opposite orders: decisions must not depend on call
        # sequence, only on the key.
        forward = [one.action(*key) for key in keys]
        backward = [two.action(*key) for key in reversed(keys)]
        assert forward == list(reversed(backward))
        assert SeededSchedule(8).action(0, UP, 0) == ChaosAction("pass")
