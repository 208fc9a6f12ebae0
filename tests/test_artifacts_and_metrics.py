"""Tests for the artifact cache, the study cache, and the metrics layer."""

from __future__ import annotations

import inspect
import pathlib
import re

import pytest

from repro.core import artifacts
from repro.core.artifacts import ArtifactCache, get_study
from repro.core.config import SystemConfig
from repro.core.metrics import METRICS, MetricsRegistry
from repro.core.standard import standard_code
from repro.core.study import ProgramStudy, compare
from repro.machine import Machine, executor
from repro.workloads import suite
from repro.workloads.suite import load


@pytest.fixture(autouse=True)
def _fresh_study_cache():
    artifacts.clear()
    yield
    artifacts.clear()


def _race_one_artifact(root: str, marker: str) -> None:
    """Child-process body for the cross-process single-flight test."""
    import time

    cache = ArtifactCache(root=root)

    def compute():
        time.sleep(0.2)
        with open(marker, "a") as handle:
            handle.write("built\n")
        return 42

    assert cache.get_or_compute("clb-curve", compute, "contended-key") == 42


class TestFingerprints:
    def test_bytes_fingerprint_is_stable_and_content_sensitive(self):
        assert artifacts.fingerprint_bytes(b"abc") == artifacts.fingerprint_bytes(b"abc")
        assert artifacts.fingerprint_bytes(b"abc") != artifacts.fingerprint_bytes(b"abd")
        assert len(artifacts.fingerprint_bytes(b"abc")) == 16

    def test_code_fingerprint_distinguishes_codes(self):
        bounded = standard_code()
        shorter = standard_code(max_length=12)
        assert artifacts.code_fingerprint(bounded) != artifacts.code_fingerprint(shorter)
        assert artifacts.code_fingerprint(bounded) == artifacts.code_fingerprint(bounded)

    def test_source_digest_changes_with_any_byte_of_either_package(
        self, edit_source, monkeypatch
    ):
        """The assembly key covers every byte of every module in its closure
        (the workload generators and the assembler among them)."""
        import sys

        baseline = artifacts.code_digest("assembly")
        closure = artifacts.import_closure("repro.workloads.suite")
        assert "repro.workloads.codegen" in closure
        assert "repro.isa.assembler" in closure
        package = artifacts._PACKAGE
        for name in closure:
            path = package.joinpath(*name.split(".")[1:]).with_suffix(".py")
            if not path.is_file():
                path = path.with_suffix("") / "__init__.py"
            original = path.read_bytes()
            middle = len(original) // 2
            path.write_bytes(
                original[:middle] + bytes([original[middle] ^ 1]) + original[middle + 1 :]
            )
            artifacts._code_digests.cache_clear()
            assert artifacts.code_digest("assembly") != baseline, name
            path.write_bytes(original)
        artifacts._code_digests.cache_clear()
        assert artifacts.code_digest("assembly") == baseline

        monkeypatch.setattr(sys, "version_info", (3, 99, 0))
        artifacts._code_digests.cache_clear()
        assert artifacts.code_digest("assembly") != baseline


class TestArtifactCache:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.store("clb-curve", {"x": 1}, "key", 42)
        found, value = cache.load("clb-curve", "key", 42)
        assert found and value == {"x": 1}

    def test_missing_key(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        found, value = cache.load("clb-curve", "nothing")
        assert not found and value is None

    def test_keys_are_kind_and_part_sensitive(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.store("clb-curve", 1, "k")
        assert not cache.load("image", "k")[0]
        assert not cache.load("clb-curve", "k", "extra")[0]

    def test_get_or_compute_computes_once(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("clb-curve", compute, "k") == "value"
        assert cache.get_or_compute("clb-curve", compute, "k") == "value"
        assert len(calls) == 1

    def test_hit_and_miss_counters(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        hits, misses = METRICS.counter("artifacts.hit"), METRICS.counter("artifacts.miss")
        cache.get_or_compute("clb-curve", lambda: 1, "counted")
        assert METRICS.counter("artifacts.miss") == misses + 1
        cache.get_or_compute("clb-curve", lambda: 1, "counted")
        assert METRICS.counter("artifacts.hit") == hits + 1

    def test_corrupt_entry_evicted_and_recomputed(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.store("clb-curve", [1, 2, 3], "k")
        path = cache.path_for("clb-curve", "k")
        path.write_bytes(b"not a pickle")
        assert cache.get_or_compute("clb-curve", lambda: [4], "k") == [4]
        assert cache.load("clb-curve", "k") == (True, [4])

    def test_corrupt_entry_counts_eviction(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.store("clb-curve", "value", "k")
        cache.path_for("clb-curve", "k").write_bytes(b"garbage")
        evictions = METRICS.counter("artifacts.evict")
        found, value = cache.load("clb-curve", "k")
        assert not found and value is None
        assert METRICS.counter("artifacts.evict") == evictions + 1
        # A clean miss is not an eviction.
        cache.load("clb-curve", "never-stored")
        assert METRICS.counter("artifacts.evict") == evictions + 1

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        for index in range(5):
            cache.store("clb-curve", bytes(1000), "k", index)
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        artifacts.set_cache_enabled(False)
        try:
            calls = []

            def compute():
                calls.append(1)
                return 7

            assert cache.get_or_compute("clb-curve", compute, "k") == 7
            assert cache.get_or_compute("clb-curve", compute, "k") == 7
            assert len(calls) == 2
            assert list(tmp_path.rglob("*.pkl")) == []
        finally:
            artifacts.set_cache_enabled(None)

    def test_cache_disabled_context_restores_state(self):
        before = artifacts.cache_enabled()
        with artifacts.cache_disabled():
            assert not artifacts.cache_enabled()
        assert artifacts.cache_enabled() == before

    def test_env_var_disables(self, monkeypatch):
        monkeypatch.setenv(artifacts.ENV_NO_CACHE, "1")
        assert not artifacts.cache_enabled()
        monkeypatch.setenv(artifacts.ENV_NO_CACHE, "0")
        assert artifacts.cache_enabled()

    def test_cache_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(artifacts.ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
        assert artifacts.cache_root() == tmp_path / "elsewhere"
        assert ArtifactCache().root == tmp_path / "elsewhere"

    def test_build_counter_counts_computes(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        builds = METRICS.counter("artifacts.build")
        cache.get_or_compute("clb-curve", lambda: 1, "fresh")
        assert METRICS.counter("artifacts.build") == builds + 1
        cache.get_or_compute("clb-curve", lambda: 1, "fresh")
        # A hit is not a build.
        assert METRICS.counter("artifacts.build") == builds + 1

    def test_lost_build_race_coalesces(self, tmp_path, monkeypatch):
        # Simulate losing the single-flight race: the first (pre-lock)
        # load misses, and by the time the lock arrives another "process"
        # has stored the artifact.  We must load the winner's value, never
        # run compute, and count it as coalesced work.
        cache = ArtifactCache(root=tmp_path)
        real_load = cache.load
        state = {"calls": 0}

        def racy_load(kind, *key_parts):
            state["calls"] += 1
            if state["calls"] == 1:
                return False, None
            cache.store(kind, "winner", *key_parts)
            return real_load(kind, *key_parts)

        monkeypatch.setattr(cache, "load", racy_load)
        coalesced = METRICS.counter("artifacts.coalesced")
        builds = METRICS.counter("artifacts.build")
        value = cache.get_or_compute("clb-curve", lambda: "loser", "contended")
        assert value == "winner"
        assert METRICS.counter("artifacts.coalesced") == coalesced + 1
        assert METRICS.counter("artifacts.build") == builds

    def test_concurrent_processes_build_once(self, tmp_path):
        # Two real processes race on one cold key with a slow compute;
        # the flock single-flight must let exactly one build through.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        marker = tmp_path / "builds.log"
        workers = [
            context.Process(
                target=_race_one_artifact, args=(str(tmp_path), str(marker))
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert all(worker.exitcode == 0 for worker in workers)
        assert marker.read_text().count("built") == 1


class TestStudyCache:
    def test_same_parameters_share_a_study(self):
        first = get_study("eightq", max_instructions=1_000_000)
        second = get_study("eightq", max_instructions=1_000_000)
        assert first is second

    def test_key_includes_max_instructions(self):
        # Regression: the old compare() cache keyed only on
        # (workload, alignment), so a different instruction cap silently
        # reused the wrong trace.
        short = get_study("eightq", max_instructions=1_000_000)
        long = get_study("eightq", max_instructions=2_000_000)
        assert short is not long
        assert short.max_instructions == 1_000_000

    def test_key_includes_code(self):
        default = get_study("eightq", max_instructions=1_000_000)
        custom = get_study(
            "eightq", code=standard_code(max_length=12), max_instructions=1_000_000
        )
        assert default is not custom

    def test_key_includes_alignment(self):
        byte_aligned = get_study("eightq", max_instructions=1_000_000)
        word_aligned = get_study("eightq", block_alignment=4, max_instructions=1_000_000)
        assert byte_aligned is not word_aligned

    def test_clear_resets(self):
        first = get_study("eightq", max_instructions=1_000_000)
        artifacts.clear()
        assert get_study("eightq", max_instructions=1_000_000) is not first

    def test_lru_bound_respected(self, monkeypatch):
        monkeypatch.setattr(artifacts, "MAX_CACHED_STUDIES", 1)
        first = get_study("eightq", max_instructions=1_000_000)
        get_study("eightq", max_instructions=3_000_000)  # evicts `first`
        assert len(artifacts._STUDIES) == 1
        assert get_study("eightq", max_instructions=1_000_000) is not first

    def test_adhoc_workloads_bypass_the_shared_cache(self):
        workload = load("eightq")
        study = get_study(workload, max_instructions=1_000_000)
        assert isinstance(study, ProgramStudy)
        assert len(artifacts._STUDIES) == 0

    def test_compare_goes_through_study_cache(self):
        report = compare("eightq", SystemConfig(cache_bytes=256))
        again = compare("eightq", SystemConfig(cache_bytes=256))
        assert report == again
        assert len(artifacts._STUDIES) == 1


class TestStudyArtifacts:
    def test_disk_artifacts_reproduce_identical_reports(self, monkeypatch, tmp_path):
        monkeypatch.setenv(artifacts.ENV_CACHE_DIR, str(tmp_path))
        config = SystemConfig(cache_bytes=256, memory="eprom")
        cold = ProgramStudy("eightq", max_instructions=1_000_000)
        cold_report = cold.metrics(config)
        stored = list(tmp_path.rglob("*.pkl"))
        assert stored, "expected trace/image/miss-stream artifacts on disk"

        hits_before = METRICS.counter("artifacts.hit")
        warm = ProgramStudy("eightq", max_instructions=1_000_000)
        warm_report = warm.metrics(config)
        assert METRICS.counter("artifacts.hit") > hits_before
        assert warm_report == cold_report

    def test_distinct_instruction_caps_get_distinct_artifacts(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(artifacts.ENV_CACHE_DIR, str(tmp_path))
        ProgramStudy("eightq", max_instructions=1_000_000)
        first = len(list(tmp_path.rglob("*.pkl")))
        ProgramStudy("eightq", max_instructions=2_000_000)
        # The cap is part of the trace key, so the second study must not
        # alias the first study's artifacts.
        assert len(list(tmp_path.rglob("*.pkl"))) > first

    def test_execution_artifacts_follow_the_executor_source(
        self, monkeypatch, tmp_path, edit_source
    ):
        """Traces and superops are keyed on the executor's code: an
        unchanged tree hits, an edited one executes and compiles again."""
        monkeypatch.setenv(artifacts.ENV_CACHE_DIR, str(tmp_path))
        runs = []
        real_run = Machine.run

        def counting_run(self, *args, **kwargs):
            runs.append(self.program)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "run", counting_run)

        def study_in_a_fresh_process():
            suite._run_cached.cache_clear()
            executor._PROGRAM_CACHE.clear()
            ProgramStudy("eightq", max_instructions=1_000_000)

        def stored(kind):
            return len(list(tmp_path.rglob(f"{kind}/*.pkl")))

        study_in_a_fresh_process()
        study_in_a_fresh_process()
        assert len(runs) == 1
        assert stored("trace") == stored("superops") == 1

        edit_source("machine/executor.py")
        study_in_a_fresh_process()
        assert len(runs) == 2
        assert stored("trace") == stored("superops") == 2
        suite._run_cached.cache_clear()


class TestMetricsRegistry:
    def test_stage_accumulates(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with registry.stage("work"):
                pass
        stats = registry.stage_stats("work")
        assert stats.calls == 3
        assert stats.wall_seconds >= 0.0

    def test_counters(self):
        registry = MetricsRegistry()
        registry.count("events")
        registry.count("events", 4)
        assert registry.counter("events") == 5
        assert registry.counter("never") == 0

    def test_snapshot_and_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        with a.stage("s"):
            pass
        a.count("c", 2)
        with b.stage("s"):
            pass
        b.count("c", 3)
        a.merge(b.snapshot())
        assert a.stage_stats("s").calls == 2
        assert a.counter("c") == 5

    def test_reset(self):
        registry = MetricsRegistry()
        registry.count("c")
        registry.gauge("g", 4)
        with registry.stage("s"):
            pass
        registry.observe("o", 1.5)
        registry.reset()
        assert registry.snapshot() == {
            "stages": {},
            "counters": {},
            "gauges": {},
            "observations": {},
        }

    def test_gauges_record_last_value_and_merge_by_max(self):
        registry = MetricsRegistry()
        registry.gauge("sweep.workers", 4)
        registry.gauge("sweep.workers", 2)
        assert registry.gauge_value("sweep.workers") == 2
        assert registry.gauge_value("never", default=7) == 7
        other = MetricsRegistry()
        other.gauge("sweep.workers", 8)
        registry.merge(other.snapshot())
        assert registry.gauge_value("sweep.workers") == 8

    def test_write_json_schema(self, tmp_path):
        import json

        registry = MetricsRegistry()
        registry.count("c", 9)
        registry.gauge("g", 3)
        path = registry.write_json(tmp_path / "m.json", extra={"jobs": 2})
        payload = json.loads(path.read_text())
        assert payload["schema"] == "ccrp-metrics/2"
        assert payload["jobs"] == 2
        assert payload["counters"] == {"c": 9}
        assert payload["gauges"] == {"g": 3}
        assert payload["stages"] == {}
        assert payload["observations"] == {}

    def test_observations_summarise_percentiles(self):
        registry = MetricsRegistry()
        for value in range(1, 101):  # 1..100, uniform
            registry.observe("latency.x", float(value))
        summary = registry.snapshot()["observations"]["latency.x"]
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.0, abs=1.0)
        assert summary["p99"] == pytest.approx(99.0, abs=1.0)
        assert summary["p50"] <= summary["p99"] <= summary["max"]

    def test_observation_window_is_bounded(self):
        from repro.core.metrics import MAX_SAMPLES

        registry = MetricsRegistry()
        for value in range(MAX_SAMPLES + 500):
            registry.observe("o", float(value))
        summary = registry.snapshot()["observations"]["o"]
        # Oldest samples aged out: the window keeps the newest ones.
        assert summary["count"] == MAX_SAMPLES
        assert summary["min"] == 500.0

    def test_merge_leaves_local_observations_alone(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.observe("o", 1.0)
        b.observe("o", 99.0)
        a.merge(b.snapshot())
        # Percentiles are not combinable from summaries; merge must not
        # fabricate samples out of the remote summary.
        assert a.snapshot()["observations"]["o"]["count"] == 1

    def test_snapshot_and_merge_are_safe_under_concurrent_recording(self):
        """Threaded stress: readers see consistent copies, never racing dicts.

        Writer threads hammer every recording surface (stages, counters,
        gauges, observations) while reader threads snapshot and merge
        concurrently.  Before snapshot/merge copied under the lock this
        raced with ``RuntimeError: dictionary changed size during
        iteration`` (or silently lost updates); now every error in any
        thread is collected and the final totals must be exact.
        """
        import threading

        registry = MetricsRegistry()
        sink = MetricsRegistry()
        start = threading.Barrier(8)
        errors = []
        rounds = 400

        def writer(name):
            try:
                start.wait()
                for i in range(rounds):
                    registry.count(f"count.{name}")
                    registry.count("count.shared")
                    registry.gauge(f"gauge.{name}", i)
                    registry.observe(f"latency.{name}", float(i % 17))
                    with registry.stage(f"stage.{name}"):
                        pass
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        def reader():
            try:
                start.wait()
                for _ in range(rounds):
                    snapshot = registry.snapshot()
                    # A snapshot is internally consistent JSON material.
                    assert set(snapshot) == {
                        "stages",
                        "counters",
                        "gauges",
                        "observations",
                    }
                    sink.merge(snapshot)
            except Exception as error:  # pragma: no cover - the failure mode
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(f"w{i}",)) for i in range(4)
        ] + [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert errors == []
        final = registry.snapshot()
        assert final["counters"]["count.shared"] == 4 * rounds
        for i in range(4):
            assert final["counters"][f"count.w{i}"] == rounds
            assert final["observations"][f"latency.w{i}"]["count"] == rounds
            assert final["stages"][f"stage.w{i}"]["calls"] == rounds


class TestConfigurationSurface:
    """The environment is a deployment surface, not a switch board.

    Only the artifact cache reads the environment, and only for its two
    deployment settings; code-path selectors must not creep back in.
    """

    SRC = pathlib.Path(artifacts.__file__).resolve().parents[1]
    ENV_READ = re.compile(
        r"\bos\.(?:environ|getenv)\b|^from os import .*\b(?:environ|getenv)\b", re.M
    )

    def _sources(self):
        for path in sorted(self.SRC.rglob("*.py")):
            yield path.relative_to(self.SRC).as_posix(), path.read_text()

    def test_ccrp_literals_are_the_cache_settings(self):
        names = {
            name
            for _, text in self._sources()
            for name in re.findall(r"""["'](CCRP_\w+)["']""", text)
        }
        assert names == {"CCRP_CACHE_DIR", "CCRP_NO_CACHE"}

    def test_only_artifacts_reads_the_environment(self):
        readers = {module for module, text in self._sources() if self.ENV_READ.search(text)}
        assert readers == {"core/artifacts.py"}

    def test_machine_takes_a_program_and_a_stall_model(self):
        """One execution engine: no mode switch on the machine."""
        parameters = inspect.signature(Machine.__init__).parameters
        assert list(parameters) == ["self", "program", "stall_model"]
