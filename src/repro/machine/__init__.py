"""Functional MIPS-I machine substrate.

The paper generated instruction-address traces with ``pixie`` on a
DECstation 3100.  This package plays that role from scratch: it loads an
:class:`~repro.isa.assembler.AssembledProgram` into a 24-bit physical memory,
executes it instruction by instruction (with branch delay slots), and
records the dynamic instruction-address trace, data-access counts, and a
pixie-style pipeline-stall estimate.
"""

from repro.machine.executor import Machine, ExecutionResult
from repro.machine.memory import Memory, MEMORY_BYTES
from repro.machine.profile import ProfileReport, profile
from repro.machine.stalls import StallModel, R2000_STALLS
from repro.machine.tracing import BlockTrace, ExecutionTrace

__all__ = [
    "BlockTrace",
    "ExecutionResult",
    "ExecutionTrace",
    "Machine",
    "Memory",
    "MEMORY_BYTES",
    "ProfileReport",
    "profile",
    "R2000_STALLS",
    "StallModel",
]
