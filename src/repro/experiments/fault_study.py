"""Fault study — corrupted-store survival across codecs and fault models.

The paper's block-bounded compression has a robustness corollary the
evaluation never measures: because each 32-byte line decompresses in
isolation, a defect in compressed ROM corrupts at most the line it lands
in, while a whole-file codec like Unix ``compress`` loses everything
from the defect onward (the decoder dictionary diverges and never
recovers).  This experiment measures that *blast radius* empirically,
alongside what the per-line CRC integrity layer of
:mod:`repro.faults.integrity` detects and what it costs to store.

Two tables come out:

* **Blast radius** — codec x fault model, aggregated over programs and
  trials: detection rate, mean/max corrupted lines, max corruption span,
  and how often corruption cascades to end-of-file.  ``raw`` is the
  uncompressed control arm (damage = bytes touched, no detection).
* **Refill-path integrity** — faults injected into the *serialised
  memory image* (compressed blocks or packed LAT entries) and replayed
  through the functional expanding cache under the ``detect`` and
  ``strict`` policies, proving the CLB/LAT walk surfaces both kinds of
  corruption at refill time.

Everything is driven by one seed; the same seed reproduces the tables
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ccrp.compressor import ProgramCompressor
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.core.standard import standard_code
from repro.errors import IntegrityError
from repro.experiments.formats import percent, render_table
from repro.faults.checker import (
    BlastReport,
    BlockStore,
    LZWStore,
    blast_baseline,
    blast_block_codec,
    blast_lzw,
    refill_survey,
)
from repro.faults.injector import DEFAULT_BURST_BYTES, FAULT_MODELS, FaultInjector
from repro.faults.integrity import INTEGRITY_BYTES_PER_LINE
from repro.workloads.suite import load

#: Small, fast corpus programs; the study aggregates across all of them.
DEFAULT_PROGRAMS = ("eightq", "who", "matrix25a")

#: Codec arms of the blast-radius table, in table order.
CODECS = ("raw", "traditional", "bounded", "preselected", "lzw")

#: The arms that compress each line on its own (with a per-line CRC).
BLOCK_CODECS = ("traditional", "bounded", "preselected")

#: Default trials per (codec, fault model, program) cell.
DEFAULT_TRIALS = 8

#: Memory-image regions the refill-path table injects into.
REFILL_TARGETS = ("code", "lat")


@dataclass(frozen=True)
class FaultRow:
    """Aggregated damage for one (codec, fault model) cell.

    Attributes:
        codec: Codec arm name.
        model: Fault-model name.
        trials: Faults injected (programs x trials each).
        detected: Trials the integrity layer caught (per-line CRC for
            block codecs, a stream error for LZW, never for ``raw``).
        mean_blast: Mean corrupted lines per trial.
        max_blast: Worst-case corrupted lines in any trial.
        max_span: Worst-case first-to-last corruption distance in lines.
        cascades: Trials where corruption reached the final line.
        crc_overhead: Stored integrity overhead as a fraction of the
            original program (0 where no per-line CRC scheme applies).
    """

    codec: str
    model: str
    trials: int
    detected: int
    mean_blast: float
    max_blast: int
    max_span: int
    cascades: int
    crc_overhead: float

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class RefillRow:
    """Refill-path integrity results for one memory-image region.

    Attributes:
        target: Corrupted region (``code`` or ``lat``).
        trials: Faults injected.
        detected: Trials the ``detect`` policy flagged at refill time.
        decode_failures: Trials where the corrupt line additionally made
            the Huffman decoder itself refuse the stream.
        strict_traps: Trials where the ``strict`` policy raised
            :class:`~repro.errors.IntegrityError` (always a superset of
            nothing — strict re-runs the same faults).
    """

    target: str
    trials: int
    detected: int
    decode_failures: int
    strict_traps: int


@dataclass(frozen=True)
class FaultStudyResult:
    """Both tables plus the parameters that reproduce them."""

    seed: int
    trials_per_case: int
    programs: tuple[str, ...]
    rows: tuple[FaultRow, ...]
    refill_rows: tuple[RefillRow, ...]

    def render(self) -> str:
        blast_rows = [
            (
                row.codec,
                row.model,
                row.trials,
                percent(row.detection_rate, 1),
                round(row.mean_blast, 2),
                row.max_blast,
                row.max_span,
                row.cascades,
                percent(row.crc_overhead, 2) if row.crc_overhead else "-",
            )
            for row in self.rows
        ]
        blast = render_table(
            f"Fault study - blast radius by codec and fault model "
            f"(seed {self.seed}, {'+'.join(self.programs)})",
            (
                "Codec",
                "Fault",
                "Trials",
                "Detected",
                "Mean blast",
                "Max blast",
                "Max span",
                "Cascades",
                "CRC cost",
            ),
            blast_rows,
        )
        refill = render_table(
            "Refill-path integrity (faults in the stored memory image, "
            "preselected code)",
            ("Target", "Trials", "Detected", "Decoder refused", "Strict traps"),
            [
                (
                    row.target,
                    row.trials,
                    row.detected,
                    row.decode_failures,
                    row.strict_traps,
                )
                for row in self.refill_rows
            ],
        )
        return blast + "\n\n" + refill

    # ------------------------------------------------------------------
    # Property checks (the CLI smoke gate)
    # ------------------------------------------------------------------

    def violations(self) -> list[str]:
        """Paper-property violations, empty when the claims hold.

        The claims: single-bit and single-byte faults in any
        block-bounded store corrupt at most one line and are always
        caught by the per-line CRC; a burst never corrupts more lines
        than bytes it touches; LZW corruption is *not* line-bounded.
        """
        problems = []
        lzw_spreads = False
        for row in self.rows:
            if row.codec in BLOCK_CODECS and row.model in ("bit_flip", "byte"):
                if row.max_blast > 1:
                    problems.append(
                        f"{row.codec}/{row.model}: blast radius {row.max_blast} > 1 line"
                    )
                if row.detected < row.trials and row.model == "bit_flip":
                    problems.append(
                        f"{row.codec}/bit_flip: CRC-8 missed "
                        f"{row.trials - row.detected} single-bit faults"
                    )
            # A burst of N bytes can straddle at most N stored blocks.
            if row.codec in BLOCK_CODECS and row.model == "burst":
                if row.max_blast > DEFAULT_BURST_BYTES:
                    problems.append(
                        f"{row.codec}/burst: blast radius {row.max_blast} exceeds "
                        f"the {DEFAULT_BURST_BYTES}-line burst bound"
                    )
            if row.codec == "lzw" and row.max_span > 1:
                lzw_spreads = True
        if not lzw_spreads:
            problems.append("lzw: no trial spread beyond one line (cascade not shown)")
        return problems


def _codes_for(text: bytes) -> dict[str, HuffmanCode]:
    histogram = byte_histogram(text)
    return {
        "traditional": HuffmanCode.from_frequencies(histogram),
        "bounded": HuffmanCode.from_frequencies(histogram, max_length=16),
        "preselected": standard_code(),
    }


def _store_for(codec: str, text: bytes, codes: dict[str, HuffmanCode]):
    """The pristine store one codec arm's trials corrupt, for one program."""
    if codec == "raw":
        return text
    if codec == "lzw":
        return LZWStore.build(text)
    return BlockStore.build(codes[codec], text)


def _one_trial(codec: str, store, injector: FaultInjector, model: str) -> BlastReport:
    if codec == "raw":
        return blast_baseline(store, injector, model)
    if codec == "lzw":
        return blast_lzw(store, injector, model)
    return blast_block_codec(store, injector, model, codec_name=codec)


def fault_row(
    codec: str, model: str, reports: list[BlastReport], text_bytes: list[int]
) -> FaultRow:
    """Aggregate one (codec, fault model) cell over its trials.

    ``text_bytes`` holds the length of each program the trials ran on.
    """
    blasts = [report.blast_radius for report in reports]
    crc_overhead = 0.0
    if codec in BLOCK_CODECS:
        # One CRC byte per 32-byte line, averaged over the corpus
        # exactly the way Figure 5 weights its averages.
        total_lines = sum(report.line_count for report in reports) // max(len(reports), 1)
        original = sum(text_bytes) / len(text_bytes)
        crc_overhead = (total_lines * INTEGRITY_BYTES_PER_LINE) / original if original else 0.0
    return FaultRow(
        codec=codec,
        model=model,
        trials=len(reports),
        detected=sum(report.detected for report in reports),
        mean_blast=sum(blasts) / len(blasts) if blasts else 0.0,
        max_blast=max(blasts, default=0),
        max_span=max((report.span for report in reports), default=0),
        cascades=sum(report.cascaded for report in reports),
        crc_overhead=crc_overhead,
    )


def _refill_trials(
    programs: tuple[str, ...], trials: int, seed: int
) -> tuple[RefillRow, ...]:
    """Corrupt the serialised memory image and replay the refill walk.

    One injector per target, so each target draws the same faults
    whatever the program order; each program is compressed once.
    """
    injectors = [
        FaultInjector(seed * 1009 + target_index)
        for target_index in range(len(REFILL_TARGETS))
    ]
    # Per target: trials, detected, decode failures, strict traps.
    counts = [[0, 0, 0, 0] for _ in REFILL_TARGETS]
    for name in programs:
        workload = load(name)
        compressor = ProgramCompressor(standard_code(), integrity=True)
        image = compressor.compress(workload.text, text_base=workload.program.text_base)
        memory = image.memory_image()
        lat_bytes = image.lat.storage_bytes
        for target, injector, count in zip(REFILL_TARGETS, injectors, counts):
            for _ in range(trials):
                count[0] += 1
                if target == "lat":
                    region, record = injector.inject(memory[:lat_bytes], "bit_flip", target)
                    corrupted = region + memory[lat_bytes:]
                else:
                    region, record = injector.inject(memory[lat_bytes:], "bit_flip", target)
                    corrupted = memory[:lat_bytes] + region
                cache, errors = refill_survey(image, "detect", corrupted)
                if cache.integrity_events:
                    count[1] += 1
                if errors:
                    count[2] += 1
                try:
                    refill_survey(image, "strict", corrupted)
                except IntegrityError:
                    count[3] += 1
    return tuple(
        RefillRow(
            target=target,
            trials=total,
            detected=detected,
            decode_failures=decode_failures,
            strict_traps=strict_traps,
        )
        for target, (total, detected, decode_failures, strict_traps) in zip(
            REFILL_TARGETS, counts
        )
    )


def run_fault_study(
    programs: tuple[str, ...] = DEFAULT_PROGRAMS,
    trials_per_case: int = DEFAULT_TRIALS,
    seed: int = 1992,
) -> FaultStudyResult:
    """Inject faults under every codec and fault model, measure the damage.

    One :class:`~repro.faults.injector.FaultInjector` per (codec, model)
    cell, deterministically seeded from ``seed`` and the cell's position,
    so any single row can be reproduced without re-running the rest.
    Programs are the outer loop and codecs the next: each cell's
    injector draws the same sequence whatever the loop order, and only
    one pristine store is alive at a time.
    """
    injectors = {
        (codec, model): FaultInjector(seed + 193 * codec_index + 7919 * model_index)
        for codec_index, codec in enumerate(CODECS)
        for model_index, model in enumerate(FAULT_MODELS)
    }
    reports: dict[tuple[str, str], list[BlastReport]] = {cell: [] for cell in injectors}
    text_bytes = []
    for name in programs:
        text = load(name).text
        text_bytes.append(len(text))
        codes = _codes_for(text)
        for codec in CODECS:
            store = _store_for(codec, text, codes)
            for model in FAULT_MODELS:
                injector = injectors[codec, model]
                for _ in range(trials_per_case):
                    reports[codec, model].append(_one_trial(codec, store, injector, model))
            del store  # freed before the next store is built
    rows = tuple(
        fault_row(codec, model, cell_reports, text_bytes)
        for (codec, model), cell_reports in reports.items()
    )
    refill_rows = _refill_trials(programs, trials_per_case, seed)
    return FaultStudyResult(
        seed=seed,
        trials_per_case=trials_per_case,
        programs=tuple(programs),
        rows=rows,
        refill_rows=refill_rows,
    )
