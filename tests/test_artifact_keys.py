"""The artifact store's one invalidation rule.

Every stored kind is keyed on the digest of its code root's static import
closure (:data:`repro.core.artifacts.KINDS`), a kind computed from another
stored value carries that value's full key, and every entry is checked
against its SHA-256 header on load.  These tests pin the table, the
edits that do and do not invalidate each kind, the entry digest, and two
guards that the regex scan still sees every module the code really uses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import ArtifactCache
from repro.core.config import SystemConfig
from repro.core.metrics import METRICS
from repro.core.standard import standard_code
from repro.core.study import ProgramStudy
from repro.errors import ConfigurationError
from repro.isa import Assembler
from repro.machine import executor
from repro.workloads import suite
from repro.workloads.suite import Workload

PAPER_KINDS = tuple(kind for kind in artifacts.KINDS if kind != "service-response")

#: Modules in each root's closure, from a scan of this tree.
CLOSURE_SIZES = {
    "repro.machine.executor": 13,
    "repro.workloads.suite": 23,
    "repro.ccrp.compressor": 9,
    "repro.pipeline.frontend": 14,
    "repro.ccrp.stackdist": 1,
    "repro.pipeline.timeline": 9,
    "repro.prefetch.timeline": 21,
    "repro.service.workers": 55,
}

#: The stored kinds whose full keys each kind carries, directly or not.
CHAINED_ON = {
    "assembly": (),
    "trace": ("assembly",),
    "image": (),
    "miss-stream": ("trace",),
    "clb-curve": ("miss-stream", "trace"),
    "pipeline-replay": ("trace",),
    "prefetch-replay": ("trace", "image"),
}

#: One configuration that reads every stored kind of a study.
CONFIG = SystemConfig(cache_bytes=256, timing="pipeline", fetch_policy="nextline")
MAX_INSTRUCTIONS = 1_000_000


def _forget_process_memos() -> None:
    """What a fresh process would not have: loaded programs, runs, superops."""
    artifacts.clear()
    suite.load.cache_clear()
    suite._run_cached.cache_clear()
    executor._PROGRAM_CACHE.clear()


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(artifacts.ENV_CACHE_DIR, str(tmp_path / "cache"))
    _forget_process_memos()
    yield tmp_path / "cache"
    _forget_process_memos()


class TestKindTable:
    def test_each_root_closure_has_its_size(self):
        sizes = {
            root: len(artifacts.import_closure(root))
            for root in set(artifacts.KINDS.values())
        }
        assert sizes == CLOSURE_SIZES

    def test_no_paper_kind_reaches_the_service_tools_or_experiments(self):
        for kind in PAPER_KINDS:
            closure = artifacts.import_closure(artifacts.KINDS[kind])
            reached = [
                name
                for name in closure
                if name.startswith(("repro.service", "repro.tools", "repro.experiments"))
            ]
            assert reached == [], kind

    def test_the_store_is_a_leaf_of_every_closure(self):
        # get_study's lazy imports stay out: no kind's code includes study.py
        # just because the store can build a study.
        closure = artifacts.import_closure("repro.machine.executor")
        assert "repro.core.artifacts" in closure
        assert "repro.core.study" not in closure

    def test_unknown_kind_is_refused(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        with pytest.raises(ConfigurationError, match="unknown artifact kind"):
            cache.store("scratch", 1, "k")
        with pytest.raises(ConfigurationError, match="unknown artifact kind"):
            cache.get_or_compute("scratch", lambda: 1, "k")
        assert list(tmp_path.rglob("*")) == []

    def test_layout_is_kind_then_key(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        path = cache.store("clb-curve", [1], "k")
        assert path == tmp_path / "clb-curve" / f"{artifacts.key('clb-curve', 'k')}.pkl"


# ----------------------------------------------------------------------
# The edit matrix
# ----------------------------------------------------------------------


def _study_keys() -> dict[str, set[str]]:
    """The key of every artifact one eightq study reads or writes, by kind."""
    keys: dict[str, set[str]] = defaultdict(set)
    key = artifacts.key

    def recording(kind, *parts):
        value = key(kind, *parts)
        keys[kind].add(value)
        return value

    standard_code()  # trained once per process, from the corpus
    _forget_process_memos()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(artifacts, "key", recording)
        study = ProgramStudy("eightq", max_instructions=MAX_INSTRUCTIONS)
        study.metrics(CONFIG)
        recording("superops", *executor._shared_key(study.workload.program))
        recording("service-response", "compress", "{}", "payload-digest")
    return keys


@pytest.mark.parametrize(
    ("edited", "changed"),
    [
        ("service/client.py", set()),
        ("ccrp/stackdist.py", {"clb-curve", "service-response"}),
        ("prefetch/engine.py", {"prefetch-replay", "service-response"}),
        ("ccrp/compressor.py", {"image", "prefetch-replay", "service-response"}),
        (
            "pipeline/frontend.py",
            {"miss-stream", "clb-curve", "prefetch-replay", "service-response"},
        ),
        (
            "machine/executor.py",
            {
                "assembly",
                "trace",
                "superops",
                "service-response",
                "miss-stream",
                "clb-curve",
                "pipeline-replay",
                "prefetch-replay",
            },
        ),
        # The service reaches the study through _job_simulate's import.
        ("core/study.py", {"service-response"}),
    ],
)
def test_an_edit_changes_exactly_the_keys_of_the_code_it_reaches(
    edited, changed, private_cache, edit_source
):
    before = _study_keys()
    assert set(before) == set(artifacts.KINDS)
    edit_source(edited)
    after = _study_keys()
    assert {kind for kind in artifacts.KINDS if after[kind] != before[kind]} == changed


# ----------------------------------------------------------------------
# Keys of the inputs
# ----------------------------------------------------------------------

COUNTDOWN = """
    .data
n:  .word {n}
    .text
main:
    la    $t1, n
    lw    $t0, 0($t1)
loop:
    addiu $t0, $t0, -1
    bnez  $t0, loop
    nop
    li    $v0, 10
    syscall
"""


def test_trace_key_covers_the_data_segment(private_cache):
    # Same text, different .data word: the loop runs 5 or 50 times.
    for count, length in ((5, 20), (50, 155)):
        program = Assembler().assemble(COUNTDOWN.format(n=count))
        workload = Workload("user", program, executable=True)
        assert len(workload.run().trace) == length
        assert len(ProgramStudy(workload).execution.trace) == length


# ----------------------------------------------------------------------
# The entry digest
# ----------------------------------------------------------------------


def test_flipped_byte_in_a_stored_trace_is_evicted_and_recomputed(private_cache):
    cold = ProgramStudy("eightq", max_instructions=MAX_INSTRUCTIONS)
    [path] = (private_cache / "trace").glob("*.pkl")
    original = path.read_bytes()
    events = cold.execution.trace.blocks.events.tobytes()
    start = original.find(events)
    assert start > 0 and len(events) > 1000
    damaged = bytearray(original)
    damaged[start + len(events) // 2] ^= 0x10
    path.write_bytes(bytes(damaged))

    _forget_process_memos()
    evictions = METRICS.counter("artifacts.evict")
    builds = METRICS.counter("artifacts.build")
    warm = ProgramStudy("eightq", max_instructions=MAX_INSTRUCTIONS)

    assert METRICS.counter("artifacts.evict") == evictions + 1
    assert METRICS.counter("artifacts.build") == builds + 1
    assert np.array_equal(warm.execution.trace.addresses, cold.execution.trace.addresses)
    assert path.read_bytes() == original


# ----------------------------------------------------------------------
# Drift guards: the scan sees every module the code really uses
# ----------------------------------------------------------------------

_IMPORT_ONE_ROOT = """
import importlib, json, sys, types
from pathlib import Path

package, root, closure = Path(sys.argv[1]), sys.argv[2], set(json.loads(sys.argv[3]))
# Packages outside the closure are stubbed, so their __init__ runs nothing.
stubs = set()
for init in package.rglob("__init__.py"):
    name = ".".join(("repro",) + init.parent.relative_to(package).parts)
    if name not in closure:
        module = types.ModuleType(name)
        module.__path__ = [str(init.parent)]
        sys.modules[name] = module
        stubs.add(name)
importlib.import_module(root)
loaded = {name for name in sys.modules if name.split(".")[0] == "repro"}
print(json.dumps(sorted(loaded - stubs - closure)))
"""


@pytest.mark.parametrize("root", sorted(set(artifacts.KINDS.values())))
def test_importing_a_root_loads_only_its_closure(root):
    closure = sorted(artifacts.import_closure(root))
    package = Path(artifacts.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ONE_ROOT, str(package), root, json.dumps(closure)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(package.parent), "PATH": ""},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


#: Study helpers a compute may call: they memoise calls into the root.
_MEMO_ACCESSORS = {
    ProgramStudy.miss_events.__code__,
    ProgramStudy.btb.__code__,
    ProgramStudy.refill_engine.__code__,
}


def _module_of(filename: str, package: Path) -> str | None:
    path = Path(filename)
    if not path.is_relative_to(package):
        return None
    parts = path.relative_to(package).with_suffix("").parts
    return ".".join(("repro",) + tuple(p for p in parts if p != "__init__"))


def _profiled(compute, executed: set):
    """``compute`` under a profiler adding each executed code object."""

    def run():
        def profile(frame, event, arg):
            if event == "call":
                executed.add(frame.f_code)

        sys.setprofile(profile)
        try:
            return compute()
        finally:
            sys.setprofile(None)

    return run


@pytest.mark.parametrize("kind", sorted(CHAINED_ON))
def test_a_compute_runs_only_code_its_key_covers(kind, private_cache, monkeypatch):
    """Each kind's compute executes only modules in its root's closure or
    in the closures of the stored values it is chained on (its input's
    own methods, such as the trace's lazy ``addresses``).  The study glue
    passed as ``compute`` and its memo accessors only call into them;
    metrics counters and timers never change a value."""
    executed: set = set()
    glue: set = set()
    get_or_compute = ArtifactCache.get_or_compute

    def profiling(self, name, compute, *parts):
        if name == kind:
            glue.add(compute.__code__)
            compute = _profiled(compute, executed)
        return get_or_compute(self, name, compute, *parts)

    monkeypatch.setattr(ArtifactCache, "get_or_compute", profiling)
    study = ProgramStudy("eightq", max_instructions=MAX_INSTRUCTIONS)
    study.metrics(CONFIG)
    assert executed, f"{kind} was never computed"

    package = Path(artifacts.__file__).resolve().parent.parent
    covered = {"repro.core.metrics"}
    for name in (kind, *CHAINED_ON[kind]):
        covered |= set(artifacts.import_closure(artifacts.KINDS[name]))
    outside = {
        f"{_module_of(code.co_filename, package)}.{code.co_name}"
        for code in executed - glue - _MEMO_ACCESSORS
        if _module_of(code.co_filename, package) not in covered | {None}
    }
    assert outside == set()
