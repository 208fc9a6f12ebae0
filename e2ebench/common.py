"""Paths, child-process plumbing and the runner record shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: The checkout the benchmark runs from; the program is built from ``src``.
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / "results"

#: Everything a run writes (caches, outputs, records) lives under here.
WORK = ROOT / ".e2ebench"


def program_env(cache_dir: Path) -> dict:
    """Environment for a child running the program from ``src`` on ``cache_dir``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), CCRP_CACHE_DIR=str(cache_dir))
    env.pop("CCRP_NO_CACHE", None)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tree_mb(path: Path) -> float:
    """Bytes of all regular files under ``path``, in MiB."""
    total = sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())
    return total / 2**20


@dataclass
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int


def run_child(command: list[str], env: dict, log: Path) -> ChildRun:
    """Run ``command`` to completion; wall time and the child's peak RSS.

    The child's stdout and stderr go to ``log``.  ``wait4`` reaps the
    child, so the RSS is that one process's high-water mark.
    """
    with log.open("wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(
            command, env=env, cwd=ROOT, stdout=sink, stderr=subprocess.STDOUT, start_new_session=True
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc)
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024, proc.returncode)


def kill_group(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Kill a child started with ``start_new_session`` and every process it started; wait for them.

    Grandchildren are reaped by init, so the wait is bounded: where init
    does not reap, an exited grandchild stays in the group as a zombie.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over every Python file under ``src`` (names and bytes), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def runner_record(workload: str, seed: int, trace: bool) -> dict:
    """Where and how this result was measured."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "workload": workload,
        "seed": seed,
        "mode": "traced" if trace else "untraced",
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": _git_revision(),
        "source_digest": source_digest(),
    }


def log(message: str) -> None:
    print(message, flush=True)


def dump(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
