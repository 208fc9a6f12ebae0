"""System configuration for the trace-driven experiments."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.cache.datacache import DataCacheModel
from repro.ccrp.decoder import DecoderModel
from repro.compression.block import BYTE_ALIGNED, WORD_ALIGNED

#: The selectable timing backends (see ``docs/modeling_notes.md``).
TIMING_BACKENDS = ("additive", "pipeline")


def validate_timing(name: str) -> str:
    """Check a timing-backend name, raising :class:`ConfigurationError`."""
    if name not in TIMING_BACKENDS:
        raise ConfigurationError(
            f"unknown timing backend {name!r}; choose from {TIMING_BACKENDS}"
        )
    return name


@dataclass(frozen=True)
class SystemConfig:
    """One point in the paper's design space.

    Defaults reproduce the proposed implementation of Section 3: 1 KB
    direct-mapped I-cache with 32-byte lines, 16-entry CLB, byte-aligned
    compressed blocks, a 2-byte-per-cycle hard-wired decoder, and no data
    cache (every data access a 4-cycle random DRAM read).

    Attributes:
        cache_bytes: Instruction-cache capacity (256-4096 in the paper).
        line_size: Cache-line size in bytes.
        memory: Instruction-memory model name (``"eprom"``,
            ``"burst_eprom"``, ``"sc_dram"``) or a
            :class:`~repro.memsys.models.MemoryModel`.
        clb_entries: CLB capacity in LAT entries.
        decoder: Refill-decoder timing model.
        data_cache: Analytic data-cache model (miss rate 1.0 = none).
        block_alignment: Compressed-block alignment (1 = byte, 4 = word).
        timing: Timing backend — ``"additive"`` (the paper's folded-in
            pixie stalls) or ``"pipeline"`` (the cycle-accurate 5-stage
            model of :mod:`repro.pipeline`).
        critical_word_first: Resume the pipeline on critical-word
            arrival during refills (modelled extension; requires the
            pipeline backend).
        integrity: Refill-time integrity policy (``"strict"``,
            ``"detect"``, ``"off"``).  Any policy but ``off`` charges the
            per-line CRC table (3.125 %, like the LAT) to the reported
            compression ratio; see :mod:`repro.faults.integrity`.
        fetch_policy: Front-end refill policy — ``"demand"`` (the
            paper's machine), ``"nextline"`` (speculatively decompress
            the fall-through line on every miss), or ``"btb"``
            (next-line plus a CFG-trained static branch-target buffer).
            Non-demand policies require the pipeline backend and are
            mutually exclusive with ``critical_word_first`` (the
            prefetch buffer holds whole decoded lines); see
            :mod:`repro.prefetch` and ``docs/modeling_notes.md`` §15.
        prefetch_depth: Capacity of the prefetch buffer in lines
            (ignored under the demand policy).
    """

    cache_bytes: int = 1024
    line_size: int = 32
    memory: object = "eprom"
    clb_entries: int = 16
    decoder: DecoderModel = field(default_factory=DecoderModel)
    data_cache: DataCacheModel = field(default_factory=DataCacheModel)
    block_alignment: int = BYTE_ALIGNED
    timing: str = "additive"
    critical_word_first: bool = False
    integrity: str = "off"
    fetch_policy: str = "demand"
    prefetch_depth: int = 4

    def __post_init__(self) -> None:
        if self.cache_bytes < self.line_size:
            raise ConfigurationError(
                f"cache of {self.cache_bytes} B cannot hold a {self.line_size} B line"
            )
        if self.block_alignment not in (BYTE_ALIGNED, WORD_ALIGNED):
            raise ConfigurationError(
                f"block alignment must be 1 or 4, got {self.block_alignment}"
            )
        if self.clb_entries < 1:
            raise ConfigurationError("CLB needs at least one entry")
        validate_timing(self.timing)
        if self.critical_word_first and self.timing != "pipeline":
            raise ConfigurationError(
                "critical-word-first refill needs the pipeline timing backend"
            )
        from repro.faults.integrity import validate_integrity_policy

        validate_integrity_policy(self.integrity)
        from repro.prefetch import validate_fetch_policy

        validate_fetch_policy(self.fetch_policy)
        if self.fetch_policy != "demand":
            if self.timing != "pipeline":
                raise ConfigurationError(
                    "prefetching fetch policies need the pipeline timing backend"
                )
            if self.critical_word_first:
                raise ConfigurationError(
                    "prefetching decodes whole lines; it cannot be combined "
                    "with critical-word-first refill"
                )
        if self.prefetch_depth < 1:
            raise ConfigurationError("prefetch buffer needs at least one entry")

    def with_options(self, **changes) -> "SystemConfig":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)
