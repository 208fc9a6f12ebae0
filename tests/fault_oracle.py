"""Whole-program reference walks for the fault trials.

The trials of :mod:`repro.faults.checker` decode only what a fault can
reach: the one or two blocks it overlaps, the LZW codes from the first
one it touches, the lines whose LAT entry or stored range it changes.
This module keeps the walks those trials are checked against, written
to be obviously complete rather than fast:

* :func:`blast_block_codec` compresses the program, decodes every block
  of the corrupted store and diffs every line;
* :func:`blast_lzw` decodes the whole corrupted ``compress`` stream;
* :func:`refill_survey` refills every line of the image through an
  :class:`~repro.ccrp.expanding_cache.ExpandingInstructionCache`;
* :func:`fault_study_rows` runs the fault study's cells on these walks,
  codec by codec, the loop order the study used before it ran program
  by program.

Run as a script, it compares :func:`run_fault_study` with
:func:`fault_study_rows` for three seeds at 32 trials per case::

    PYTHONPATH=src python tests/fault_oracle.py
"""

from __future__ import annotations

import sys

from repro.ccrp.compressor import ProgramCompressor
from repro.ccrp.expanding_cache import ExpandingInstructionCache
from repro.compression.block import DEFAULT_LINE_SIZE, BlockCompressor
from repro.compression.huffman import HuffmanCode
from repro.compression.lzw import HEADER_BYTES, lzw_compress, lzw_decompress
from repro.core.standard import standard_code
from repro.errors import IntegrityError, ReproError
from repro.experiments.fault_study import (
    CODECS,
    DEFAULT_PROGRAMS,
    REFILL_TARGETS,
    RefillRow,
    _codes_for,
    fault_row,
    run_fault_study,
)
from repro.faults.checker import BlastReport, blast_baseline, diff_lines, pad_to_lines
from repro.faults.injector import FAULT_MODELS, FaultInjector, FaultRecord
from repro.faults.integrity import crc8, line_crcs
from repro.workloads.suite import load

#: Seeds the script compares the study on (the study's default is 1992).
SEEDS = (7, 1234, 2024)

#: Trials per (codec, fault model, program) cell in the script.
TRIALS = 32


def blast_block_codec(
    code: HuffmanCode,
    text: bytes,
    injector,
    model: str,
    codec_name: str = "block",
    line_size: int = DEFAULT_LINE_SIZE,
    alignment: int = 1,
) -> BlastReport:
    """Corrupt the stored blocks, decode every one of them, diff every line."""
    golden = pad_to_lines(text, line_size)
    compressor = BlockCompressor(code, line_size=line_size, alignment=alignment)
    blocks = compressor.compress_program(golden)
    golden_crcs = line_crcs(blocks)
    corrupted_store, record = injector.inject(b"".join(block.data for block in blocks), model)

    slices = []
    offset = 0
    for block in blocks:
        slices.append(corrupted_store[offset : offset + block.stored_size])
        offset += block.stored_size

    # One batch decode; a refused slot is decoded scalar for its message.
    batch = iter(
        code.decode_lines(
            [data for data, block in zip(slices, blocks) if block.is_compressed],
            line_size,
            errors="none",
        )
    )
    decoded = bytearray()
    detected = False
    decode_error = None
    for index, (data, block) in enumerate(zip(slices, blocks)):
        if crc8(data) != golden_crcs[index]:
            detected = True
        if not block.is_compressed:
            decoded.extend(data)
            continue
        line = next(batch)
        if line is not None:
            decoded.extend(line)
            continue
        try:
            code.decode_fast(data, line_size)
        except ReproError as error:
            decode_error = str(error)
        decoded.extend(bytes(line_size))
    return BlastReport(
        codec=codec_name,
        record=record,
        line_count=len(blocks),
        corrupted_lines=diff_lines(golden, bytes(decoded), line_size),
        detected=detected,
        decode_error=decode_error,
    )


def blast_lzw(
    text: bytes, injector, model: str, line_size: int = DEFAULT_LINE_SIZE
) -> BlastReport:
    """Corrupt the LZW payload and decode the whole stream from its first code."""
    golden = pad_to_lines(text, line_size)
    blob = lzw_compress(golden)
    payload, record = injector.inject(blob[HEADER_BYTES:], model)
    record = FaultRecord(
        model=record.model,
        target=record.target,
        offset=record.offset + HEADER_BYTES,
        length=record.length,
        bit=record.bit,
        masks=record.masks,
    )
    detected = False
    decode_error = None
    try:
        decoded = lzw_decompress(blob[:HEADER_BYTES] + payload)
    except ReproError as error:
        detected = True
        decode_error = str(error)
        decoded = b""
    return BlastReport(
        codec="lzw",
        record=record,
        line_count=len(golden) // line_size,
        corrupted_lines=diff_lines(golden, decoded, line_size),
        detected=detected,
        decode_error=decode_error,
    )


def refill_survey(
    image,
    policy: str = "detect",
    memory_image: bytes | None = None,
    cache_bytes: int = 1024,
):
    """Refill every line of the image, in program order."""
    cache = ExpandingInstructionCache(
        image, cache_bytes=cache_bytes, integrity=policy, memory_image=memory_image
    )
    decode_errors: list[tuple[int, str]] = []
    for line in range(image.line_count):
        try:
            cache.read_line(image.text_base + line * image.line_size)
        except IntegrityError:
            raise
        except ReproError as error:
            decode_errors.append((line, str(error)))
    return cache, decode_errors


def fault_study_rows(
    programs: tuple[str, ...] = DEFAULT_PROGRAMS, trials: int = TRIALS, seed: int = 1992
):
    """``(rows, refill_rows)`` of the fault study, on the whole-program walks."""
    texts = {name: load(name).text for name in programs}
    codes = {name: _codes_for(text) for name, text in texts.items()}
    rows = []
    for codec_index, codec in enumerate(CODECS):
        for model_index, model in enumerate(FAULT_MODELS):
            injector = FaultInjector(seed + 193 * codec_index + 7919 * model_index)
            reports = []
            for name in programs:
                for _ in range(trials):
                    if codec == "raw":
                        report = blast_baseline(texts[name], injector, model)
                    elif codec == "lzw":
                        report = blast_lzw(texts[name], injector, model)
                    else:
                        report = blast_block_codec(
                            codes[name][codec], texts[name], injector, model, codec
                        )
                    reports.append(report)
            rows.append(fault_row(codec, model, reports, [len(texts[name]) for name in programs]))

    refill_rows = []
    for target_index, target in enumerate(REFILL_TARGETS):
        injector = FaultInjector(seed * 1009 + target_index)
        total = detected = decode_failures = strict_traps = 0
        for name in programs:
            workload = load(name)
            compressor = ProgramCompressor(standard_code(), integrity=True)
            image = compressor.compress(workload.text, text_base=workload.program.text_base)
            memory = image.memory_image()
            lat_bytes = image.lat.storage_bytes
            for _ in range(trials):
                total += 1
                if target == "lat":
                    region, _ = injector.inject(memory[:lat_bytes], "bit_flip", target)
                    corrupted = region + memory[lat_bytes:]
                else:
                    region, _ = injector.inject(memory[lat_bytes:], "bit_flip", target)
                    corrupted = memory[:lat_bytes] + region
                cache, errors = refill_survey(image, "detect", corrupted)
                detected += bool(cache.integrity_events)
                decode_failures += bool(errors)
                try:
                    refill_survey(image, "strict", corrupted)
                except IntegrityError:
                    strict_traps += 1
        refill_rows.append(
            RefillRow(target, total, detected, decode_failures, strict_traps)
        )
    return tuple(rows), tuple(refill_rows)


def main() -> int:
    mismatches = 0
    for seed in SEEDS:
        study = run_fault_study(trials_per_case=TRIALS, seed=seed)
        rows, refill_rows = fault_study_rows(trials=TRIALS, seed=seed)
        same = study.rows == rows and study.refill_rows == refill_rows
        mismatches += not same
        print(
            f"seed {seed}: {len(rows)} blast rows, {len(refill_rows)} refill rows "
            f"({sum(row.trials for row in rows)} trials): "
            + ("identical" if same else "DIFFERENT")
        )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
