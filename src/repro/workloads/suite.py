"""The named benchmark suite.

Two collections mirror the paper:

* :data:`FIGURE5_PROGRAMS` — the ten-program *compression corpus* of
  Figure 5 at the paper's text-segment sizes.  These only need realistic
  bytes, not execution.
* :data:`SIMULATION_PROGRAMS` — the executable programs the performance
  tables are driven by (NASA7, matrix25A, fpppp, espresso, NASA1, eightq,
  tomcatv, lloopO1).  Each runs on the functional simulator to produce
  its instruction trace.

``load(name)`` returns a cached :class:`Workload`; everything is
deterministic, so repeated loads are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.isa.assembler import AssembledProgram, Assembler
from repro.machine.executor import ExecutionResult, Machine
from repro.workloads.codegen import (
    CodeGenerator,
    FP_PERSONALITY,
    FPPPP_PERSONALITY,
    INTEGER_PERSONALITY,
    Personality,
)
from repro.workloads.kernels import (
    EIGHTQ_SOURCE,
    LLOOP01_SOURCE,
    MATRIX25A_SOURCE,
    NASA1_SOURCE,
    NASA7_SOURCE,
    TOMCATV_SOURCE,
)
from repro.workloads.kernels.extra import CRC32_SOURCE, FIB_SOURCE, QSORT_SOURCE


@dataclass(frozen=True)
class _Spec:
    """How to synthesise one workload."""

    name: str
    kind: str  # "kernel", "pool", "fp_block", "static"
    personality: Personality
    text_bytes: int  # target static size (0 = whatever the kernel needs)
    kernel: str | None = None
    executable: bool = True
    pool_functions: int = 64
    pool_iterations: int = 1500
    fp_block_words: int = 460
    fp_iterations: int = 260


#: Paper text sizes (Figure 5); 36766 rounded up to a word boundary.
_SPECS: dict[str, _Spec] = {
    spec.name: spec
    for spec in (
        # ---- Figure 5 compression corpus (static byte realism) --------
        _Spec("tex", "static", INTEGER_PERSONALITY, 53172, executable=False),
        _Spec("pswarp", "static", INTEGER_PERSONALITY, 61364, executable=False),
        _Spec("yacc", "static", INTEGER_PERSONALITY, 49076, executable=False),
        _Spec("who", "static", INTEGER_PERSONALITY, 65940, executable=False),
        _Spec("xlisp", "static", INTEGER_PERSONALITY, 65940, executable=False),
        _Spec("spim", "static", INTEGER_PERSONALITY, 147360, executable=False),
        # ---- executable kernels (also in the Figure 5 corpus) ---------
        _Spec("eightq", "kernel", INTEGER_PERSONALITY, 4020, kernel=EIGHTQ_SOURCE),
        _Spec("matrix25a", "kernel", FP_PERSONALITY, 36768, kernel=MATRIX25A_SOURCE),
        _Spec("lloop01", "kernel", FP_PERSONALITY, 4020, kernel=LLOOP01_SOURCE),
        # ---- executable simulation programs ---------------------------
        _Spec("espresso", "pool", INTEGER_PERSONALITY, 176052),
        _Spec("nasa7", "kernel", FP_PERSONALITY, 28672, kernel=NASA7_SOURCE),
        _Spec("nasa1", "kernel", FP_PERSONALITY, 20480, kernel=NASA1_SOURCE),
        _Spec("tomcatv", "kernel", FP_PERSONALITY, 24576, kernel=TOMCATV_SOURCE),
        _Spec("fpppp", "fp_block", FPPPP_PERSONALITY, 61440),
        # ---- extra validation workloads (not in the paper's tables) ----
        _Spec("qsort", "kernel", INTEGER_PERSONALITY, 8192, kernel=QSORT_SOURCE),
        _Spec("crc32", "kernel", INTEGER_PERSONALITY, 4096, kernel=CRC32_SOURCE),
        _Spec("fib", "kernel", INTEGER_PERSONALITY, 4096, kernel=FIB_SOURCE),
    )
}

#: The ten programs of Figure 5, in the paper's order.
FIGURE5_PROGRAMS: tuple[str, ...] = (
    "tex",
    "pswarp",
    "yacc",
    "who",
    "eightq",
    "matrix25a",
    "lloop01",
    "xlisp",
    "espresso",
    "spim",
)

#: Programs driving the performance tables (1-13) and Figure 9.
SIMULATION_PROGRAMS: tuple[str, ...] = (
    "nasa7",
    "matrix25a",
    "fpppp",
    "espresso",
    "nasa1",
    "eightq",
    "tomcatv",
    "lloop01",
)


@dataclass(frozen=True)
class Workload:
    """A ready-to-use benchmark program.

    Attributes:
        name: Suite name (e.g. ``"espresso"``).
        program: The assembled image.
        executable: Whether :meth:`run` is meaningful (the purely static
            Figure 5 corpus programs never execute).
    """

    name: str
    program: AssembledProgram
    executable: bool

    @property
    def text(self) -> bytes:
        """Text-segment bytes (the compression corpus unit)."""
        return self.program.text

    @property
    def size(self) -> int:
        return self.program.size

    def run(self, max_instructions: int = 4_000_000) -> ExecutionResult:
        """Execute and return the (cached) trace and statistics.

        Suite workloads share a process-wide cache; ad-hoc workloads
        (user programs wrapped in a :class:`Workload`) memoise on the
        instance.
        """
        if not self.executable:
            raise ConfigurationError(f"workload {self.name!r} is compression-only")
        if self.name in _SPECS:
            return _run_cached(self.name, max_instructions)
        cached = getattr(self, "_adhoc_result", None)
        if cached is None or cached[0] != max_instructions:
            result = Machine(self.program).run(max_instructions=max_instructions)
            cached = (max_instructions, result)
            object.__setattr__(self, "_adhoc_result", cached)
        return cached[1]


def _build_source(spec: _Spec) -> str:
    generator = CodeGenerator(spec.name, spec.personality)
    if spec.kind == "static":
        return generator.static_program(spec.text_bytes)
    if spec.kind == "kernel":
        return generator.static_program(spec.text_bytes, prologue=spec.kernel)
    if spec.kind == "pool":
        return generator.pool_program(
            functions=spec.pool_functions,
            iterations=spec.pool_iterations,
            static_pad_bytes=spec.text_bytes,
        )
    if spec.kind == "fp_block":
        return generator.straightline_fp_program(
            block_words=spec.fp_block_words,
            iterations=spec.fp_iterations,
            static_pad_bytes=spec.text_bytes,
        )
    raise ConfigurationError(f"unknown workload kind {spec.kind!r}")


@lru_cache(maxsize=None)
def load(name: str) -> Workload:
    """Load a workload by suite name (deterministic and cached).

    Source generation and assembly dominate a cold process start, so the
    assembled image is memoised in the on-disk artifact cache.  The image
    is a function of the workload name and the code this module imports,
    so the key is the name alone (the store adds the code digest): a warm
    load neither generates nor assembles, and an edit to that code
    rebuilds every image.
    """
    from repro.core import artifacts

    spec = _SPECS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {sorted(_SPECS)}"
        )
    program = artifacts.get_cache().get_or_compute(
        "assembly",
        lambda: Assembler().assemble(_build_source(spec)),
        name,
    )
    return Workload(name=name, program=program, executable=spec.executable)


@lru_cache(maxsize=None)
def _run_cached(name: str, max_instructions: int) -> ExecutionResult:
    workload = load(name)
    return Machine(workload.program).run(max_instructions=max_instructions)


def load_figure5_corpus() -> dict[str, bytes]:
    """Text segments of the ten Figure 5 programs, in paper order."""
    return {name: load(name).text for name in FIGURE5_PROGRAMS}


def available_workloads() -> tuple[str, ...]:
    """All workload names the suite can build."""
    return tuple(sorted(_SPECS))
