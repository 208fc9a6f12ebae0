"""Fault injection, integrity verification, and blast-radius checking.

The robustness companion to the performance models: deterministic
storage-fault injection (:mod:`repro.faults.injector`), a per-line CRC
integrity layer with strict/detect/off policies
(:mod:`repro.faults.integrity`), and a differential golden-model checker
that measures how far one defect spreads under each codec
(:mod:`repro.faults.checker`), which decodes only what each fault
can reach.
"""

from repro.faults.checker import (
    BlastReport,
    BlockStore,
    LZWStore,
    blast_baseline,
    blast_block_codec,
    blast_lzw,
    diff_lines,
    pad_to_lines,
    refill_survey,
)
from repro.faults.injector import (
    DEFAULT_BURST_BYTES,
    FAULT_MODELS,
    FAULT_TARGETS,
    FaultInjector,
    FaultRecord,
    validate_fault_model,
)
from repro.faults.integrity import (
    INTEGRITY_BYTES_PER_LINE,
    INTEGRITY_POLICIES,
    add_integrity,
    crc8,
    line_crcs,
    validate_integrity_policy,
)

__all__ = [
    "BlastReport",
    "BlockStore",
    "DEFAULT_BURST_BYTES",
    "FAULT_MODELS",
    "FAULT_TARGETS",
    "FaultInjector",
    "FaultRecord",
    "INTEGRITY_BYTES_PER_LINE",
    "INTEGRITY_POLICIES",
    "LZWStore",
    "add_integrity",
    "blast_baseline",
    "blast_block_codec",
    "blast_lzw",
    "crc8",
    "diff_lines",
    "line_crcs",
    "pad_to_lines",
    "refill_survey",
    "validate_fault_model",
    "validate_integrity_policy",
]
