"""Parallel sweeps: the workload pool of ``sweep_many``, worker counts and
recovery.

* A parallel sweep returns the serial run's reports *and* failures, in
  the same order.
* A whole-workload task whose worker died is re-run in the parent with
  its true attempt count.
* ``ccrp-sweep --jobs`` exports the serial run's JSON byte for byte.

Cross-process single-flight builds are pinned by
``test_artifacts_and_metrics.py::test_concurrent_processes_build_once``.
"""

from __future__ import annotations

import json

import pytest

from repro.core import pool, sweep as sweep_module
from repro.core.metrics import METRICS
from repro.core.pool import effective_jobs
from repro.core.sweep import SweepResult, sweep, sweep_many

#: A small but non-trivial grid: 2 cache sizes x 2 memories = 4 points.
AXES = dict(cache_sizes=(256, 512), memories=("eprom", "burst_eprom"))

#: Same grid with a deterministically-failing memory model injected:
#: "nosuch" passes config construction (memory resolves lazily) and
#: raises ConfigurationError at metrics() time, per grid point.
FAILING_AXES = dict(cache_sizes=(256, 512), memories=("eprom", "nosuch"))


def _force_pool(monkeypatch, cpus: int = 2) -> None:
    """Pretend this machine has ``cpus`` CPUs so effective_jobs > 1.

    The test container may be pinned to one core, which would silently
    collapse every ``jobs=N`` request to a serial run and leave the
    pool code paths untested.
    """
    monkeypatch.setattr(pool, "available_cpus", lambda: cpus)


# ----------------------------------------------------------------------
# Parallel sweeps return the serial run's reports and failures
# ----------------------------------------------------------------------


class TestShardPartitionIdentity:
    """Fanning workloads across workers leaves reports and failures as the
    serial run has them."""

    def test_parallel_run_matches_serial_including_failures(self, monkeypatch):
        _force_pool(monkeypatch)
        workloads = ("eightq", "lloop01")
        serial = sweep_many(workloads, **FAILING_AXES)
        parallel = sweep_many(workloads, jobs=2, **FAILING_AXES)
        assert len(serial.failures) == 4
        assert parallel.reports == serial.reports
        assert parallel.failures == serial.failures

    def test_unknown_workload_fails_once_per_covering_shard(self):
        result = sweep("no-such-workload", **AXES)
        assert result.reports == ()
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.detail == "study build (4 grid points)"
        assert failure.attempts == 1


# ----------------------------------------------------------------------
# effective_jobs / worker-count plumbing
# ----------------------------------------------------------------------


class TestEffectiveJobs:
    def test_prefers_scheduler_affinity_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            pool.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 64)
        assert pool.available_cpus() == 1
        assert effective_jobs(8, 100) == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(
            pool.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 3)
        assert pool.available_cpus() == 3
        assert effective_jobs(8, 100) == 3

    def test_clamps_to_tasks_and_request(self, monkeypatch):
        _force_pool(monkeypatch, cpus=16)
        assert effective_jobs(None, 100) == 1
        assert effective_jobs(4, 2) == 2
        assert effective_jobs(4, 100) == 4
        assert effective_jobs(0, 100) == 1

    def test_sweep_records_workers_gauge(self, monkeypatch):
        _force_pool(monkeypatch)
        sweep_many(("eightq", "lloop01"), jobs=2, **AXES)
        assert METRICS.gauge_value("sweep.workers") == 2
        sweep_many(("eightq", "lloop01"), jobs=1, **AXES)
        assert METRICS.gauge_value("sweep.workers") == 1

    def test_serial_sweep_records_no_gauge(self):
        METRICS.reset()
        sweep_many(("eightq",), **AXES)
        assert "sweep.workers" not in METRICS.snapshot()["gauges"]


# ----------------------------------------------------------------------
# sweep_many whole-workload fallback: true attempt counts
# ----------------------------------------------------------------------


def _exploding_sweep_one(workload, axes):
    raise RuntimeError(f"worker for {workload} exploded")


class TestRecoverWorkload:
    def test_reports_true_attempts_and_honors_retries(self, monkeypatch):
        calls = []

        def always_failing(workload, **axes):
            calls.append(workload)
            raise RuntimeError("still broken")

        monkeypatch.setattr(sweep_module, "sweep", always_failing)
        before = METRICS.counter("sweep.retries")
        reports, failures = sweep_module._recover_workload(
            "eightq", {}, 3, RuntimeError("pool died"), False
        )
        assert reports == ()
        assert len(failures) == 1
        failure = failures[0]
        assert failure.detail == "whole-workload sweep"
        assert failure.error_type == "RuntimeError"
        assert failure.message == "still broken"
        assert failure.attempts == 4  # 1 pooled attempt + 3 re-runs
        assert len(calls) == 3
        assert METRICS.counter("sweep.retries") - before == 3

    def test_zero_retries_reports_the_original_error(self, monkeypatch):
        monkeypatch.setattr(
            sweep_module,
            "sweep",
            lambda workload, **axes: pytest.fail("must not re-run"),
        )
        reports, failures = sweep_module._recover_workload(
            "eightq", {}, 0, RuntimeError("pool died"), False
        )
        assert reports == ()
        assert failures[0].attempts == 1
        assert failures[0].message == "pool died"

    def test_successful_retry_returns_the_result(self, monkeypatch):
        sentinel = SweepResult(reports=(), failures=())
        monkeypatch.setattr(
            sweep_module, "sweep", lambda workload, **axes: sentinel
        )
        reports, failures = sweep_module._recover_workload(
            "eightq", {}, 1, RuntimeError("pool died"), False
        )
        assert reports == sentinel.reports
        assert failures == ()

    def test_strict_reraises_annotated(self):
        with pytest.raises(RuntimeError, match="workload 'eightq'"):
            sweep_module._recover_workload(
                "eightq", {}, 1, RuntimeError("pool died"), True
            )

    def test_pool_death_recovers_in_parent(self, monkeypatch):
        """A dead whole-workload worker falls back to an in-process run."""
        _force_pool(monkeypatch)
        monkeypatch.setattr(sweep_module, "_sweep_one", _exploding_sweep_one)
        axes = dict(cache_sizes=(256,), memories=("eprom",))
        result = sweep_many(("eightq", "lloop01"), jobs=2, **axes)
        serial = sweep_many(("eightq", "lloop01"), **axes)
        assert result.ok
        assert result == serial


# ----------------------------------------------------------------------
# ccrp-sweep CLI: parallel export is byte-identical, usage errors exit 2
# ----------------------------------------------------------------------


class TestSweepCLI:
    BASE = [
        "eightq",
        "lloop01",
        "--cache-sizes", "256", "512",
        "--memories", "eprom",
    ]

    def _main(self, argv):
        from repro.tools.sweep import main

        return main(argv)

    def test_parallel_json_byte_identical_to_serial(
        self, tmp_path, monkeypatch, capsys
    ):
        _force_pool(monkeypatch)
        serial_json = tmp_path / "serial.json"
        parallel_json = tmp_path / "parallel.json"
        assert self._main(self.BASE + ["--json", str(serial_json)]) == 0
        argv = self.BASE + ["--jobs", "2", "--json", str(parallel_json)]
        assert self._main(argv) == 0
        assert parallel_json.read_bytes() == serial_json.read_bytes()
        payload = json.loads(serial_json.read_text())
        assert payload["schema"] == "ccrp-sweep/1"
        assert len(payload["reports"]) == 4
        assert payload["failures"] == []

    def test_failures_exit_nonzero_but_write_results(self, tmp_path, capsys):
        out = tmp_path / "partial.json"
        argv = [
            "eightq",
            "--cache-sizes", "256",
            "--memories", "eprom", "nosuch",
            "--json", str(out),
        ]
        assert self._main(argv) == 1
        payload = json.loads(out.read_text())
        assert len(payload["reports"]) == 1
        assert len(payload["failures"]) == 1
        assert payload["failures"][0]["error_type"] == "ConfigurationError"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "2"],  # options but no workload
            [],  # no workload
            ["eightq", "--jobs", "0"],
            ["eightq", "--retries", "-1"],
            ["eightq", "--cache-sizes", "big"],  # not an integer
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self._main(argv)
        assert excinfo.value.code == 2

    def test_metrics_export_includes_workers_gauge(
        self, tmp_path, monkeypatch, capsys
    ):
        _force_pool(monkeypatch)
        metrics_path = tmp_path / "metrics.json"
        argv = self.BASE + [
            "--jobs", "2",
            "--metrics", str(metrics_path),
        ]
        assert self._main(argv) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["gauges"]["sweep.workers"] == 2
        assert payload["jobs"] == 2
