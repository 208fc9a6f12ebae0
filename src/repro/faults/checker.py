"""Differential golden-model checking: how far does one defect spread?

The paper's central robustness property is *block-bounded* damage: each
32-byte line decompresses in isolation, so a defect in compressed ROM can
corrupt at most the line it lands in, while a whole-file codec like Unix
``compress`` loses everything from the defect to end-of-file (the decoder
dictionary diverges and never recovers).  This module measures that
*blast radius* empirically: inject a fault, decode what it can reach,
and diff the result line by line against the original program.

Two decode paths are covered, each against a pristine store built once
per program:

* :func:`blast_block_codec` — any per-line Huffman variant (traditional,
  bounded, preselected) through the block codec with the bypass rule,
  over a :class:`BlockStore`: only the one or two blocks the fault
  overlaps are re-sliced, checked and decoded, because every other
  block is the pristine one;
* :func:`blast_lzw` — the whole-file ``compress`` clone, over an
  :class:`LZWStore`: the decode resumes at the first code the fault
  reaches, because every code before it decodes as in the pristine run.

Both return a :class:`BlastReport`; a line is *corrupted* if its decoded
bytes differ from the golden program or were never produced at all
(a truncated LZW decode loses the tail outright).  ``tests/fault_oracle.py``
keeps the whole-program walks these trials are checked against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.compression.block import DEFAULT_LINE_SIZE, BlockCompressor
from repro.compression.huffman import HuffmanCode
from repro.compression.lzw import HEADER_BYTES, LZWIndex, lzw_compress, lzw_decompress
from repro.errors import CompressionError, IntegrityError, ReproError
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.integrity import crc8, line_crcs
from repro.lat.entry import ENTRY_BYTES, LINES_PER_ENTRY


@dataclass(frozen=True)
class BlastReport:
    """Damage assessment for one injected fault.

    Attributes:
        codec: Codec name the fault was injected under.
        record: The fault that was injected.
        line_count: Total lines in the golden program.
        corrupted_lines: Indices of lines whose decode differs from the
            golden program (including lines lost to truncation).
        detected: Whether the integrity layer caught the fault — the
            per-line CRC for block codecs, a stream error for LZW.
        decode_error: Decoder exception message, if decoding raised.
    """

    codec: str
    record: FaultRecord
    line_count: int
    corrupted_lines: tuple[int, ...] = ()
    detected: bool = False
    decode_error: str | None = field(default=None)

    @property
    def blast_radius(self) -> int:
        """Number of lines the fault corrupted."""
        return len(self.corrupted_lines)

    @property
    def span(self) -> int:
        """Lines from first to last corruption, inclusive (0 if clean)."""
        if not self.corrupted_lines:
            return 0
        return self.corrupted_lines[-1] - self.corrupted_lines[0] + 1

    @property
    def cascaded(self) -> bool:
        """True when corruption reaches the final line of the program."""
        return bool(self.corrupted_lines) and self.corrupted_lines[-1] == self.line_count - 1


def pad_to_lines(text: bytes, line_size: int = DEFAULT_LINE_SIZE) -> bytes:
    """Zero-pad ``text`` to a whole number of lines (the linker's view)."""
    remainder = len(text) % line_size
    if remainder:
        text = text + bytes(line_size - remainder)
    return text


def diff_lines(golden: bytes, decoded: bytes, line_size: int = DEFAULT_LINE_SIZE) -> tuple[int, ...]:
    """Indices of golden lines that ``decoded`` gets wrong or never covers.

    ``decoded`` may be shorter (a truncated cascade) or longer (a corrupt
    LZW dictionary can over-produce); extra bytes past the golden length
    are ignored — every golden line is either reproduced exactly or
    counted as corrupted.
    """
    corrupted = []
    for index in range(0, len(golden), line_size):
        if golden[index : index + line_size] != decoded[index : index + line_size]:
            corrupted.append(index // line_size)
    return tuple(corrupted)


@dataclass(frozen=True)
class BlockStore:
    """The pristine block-compressed store of one program under one code.

    Built once per program and shared by its trials, which never mutate
    it: each trial injects into, re-slices and decodes its own copy.

    Attributes:
        code: The Huffman code the blocks are compressed with.
        golden: The program, zero-padded to whole lines.
        line_size: Bytes per line (and per block before compression).
        compressed: Per block, whether it is Huffman-coded (else bypassed).
        crcs: The per-line CRC table of the blocks.
        stored: The concatenated stored blocks (what sits in memory).
        ends: Cumulative end offset of each block within ``stored``.
    """

    code: HuffmanCode
    golden: bytes
    line_size: int
    compressed: tuple[bool, ...]
    crcs: bytes
    stored: bytes
    ends: tuple[int, ...]

    @classmethod
    def build(
        cls,
        code: HuffmanCode,
        text: bytes,
        line_size: int = DEFAULT_LINE_SIZE,
        alignment: int = 1,
    ) -> BlockStore:
        """Compress ``text``; raise unless the store decodes back to it."""
        golden = pad_to_lines(text, line_size)
        compressor = BlockCompressor(code, line_size=line_size, alignment=alignment)
        blocks = tuple(compressor.compress_program(golden))
        decoded = iter(
            code.decode_lines(
                [block.data for block in blocks if block.is_compressed],
                line_size,
                errors="none",
            )
        )
        lines = [next(decoded) if block.is_compressed else block.data for block in blocks]
        if None in lines or b"".join(lines) != golden:
            raise CompressionError(
                f"pristine block store of {len(blocks)} lines does not decode to its program"
            )
        return cls(
            code=code,
            golden=golden,
            line_size=line_size,
            compressed=tuple(block.is_compressed for block in blocks),
            crcs=line_crcs(blocks),
            stored=b"".join(block.data for block in blocks),
            ends=tuple(accumulate(block.stored_size for block in blocks)),
        )


@dataclass(frozen=True)
class LZWStore:
    """The pristine whole-file ``compress`` store of one program.

    Attributes:
        golden: The program, zero-padded to whole lines.
        line_size: Bytes per line of the diff.
        blob: The ``compress`` blob (header and payload).
        index: Its one pristine decode, indexed by code.
    """

    golden: bytes
    line_size: int
    blob: bytes
    index: LZWIndex

    @classmethod
    def build(cls, text: bytes, line_size: int = DEFAULT_LINE_SIZE) -> LZWStore:
        """Compress ``text``; raise unless the blob decodes back to it."""
        golden = pad_to_lines(text, line_size)
        blob = lzw_compress(golden)
        index = LZWIndex.build(blob)
        if index.output != golden:
            raise CompressionError("pristine LZW store does not decode to its program")
        return cls(golden=golden, line_size=line_size, blob=blob, index=index)


def blast_block_codec(
    store: BlockStore,
    injector: FaultInjector,
    model: str,
    codec_name: str = "block",
) -> BlastReport:
    """Inject one fault into a block-compressed store and assess the damage.

    The fault lands in the concatenated stored blocks (what actually sits
    in instruction memory).  Storage faults change bytes, never the
    LAT's length records, so the corrupted store is re-sliced at the
    *original* block boundaries, and only the blocks the faulted bytes
    overlap can differ from the pristine ones: those are checked
    against their per-line CRC (:mod:`repro.faults.integrity`) and
    decoded *independently* — the refill engine's contract — then
    diffed against the golden program.
    """
    corrupted_store, record = injector.inject(store.stored, model)
    ends = store.ends
    first = bisect_right(ends, record.offset)
    last = bisect_right(ends, record.offset + record.length - 1)

    line_size = store.line_size
    corrupted_lines = []
    detected = False
    decode_error = None
    for index in range(first, last + 1):
        data = corrupted_store[ends[index - 1] if index else 0 : ends[index]]
        if crc8(data) != store.crcs[index]:
            detected = True
        if not store.compressed[index]:
            line = data
        else:
            try:
                line = store.code.decode_fast(data, line_size)
            except ReproError as error:
                # The decoder refused the line: functionally a lost line.
                decode_error = str(error)
                line = bytes(line_size)
        if line != store.golden[index * line_size : (index + 1) * line_size]:
            corrupted_lines.append(index)
    return BlastReport(
        codec=codec_name,
        record=record,
        line_count=len(store.ends),
        corrupted_lines=tuple(corrupted_lines),
        detected=detected,
        decode_error=decode_error,
    )


def blast_baseline(
    text: bytes,
    injector: FaultInjector,
    model: str,
    line_size: int = DEFAULT_LINE_SIZE,
) -> BlastReport:
    """The control arm: a fault in an *uncompressed* instruction store.

    No decoding happens, so damage is exactly the bytes the fault
    touched — the bound any compressed scheme is measured against.  No
    integrity layer exists on the raw store either (``detected`` is
    always False).
    """
    golden = pad_to_lines(text, line_size)
    corrupted, record = injector.inject(golden, model, target="baseline")
    return BlastReport(
        codec="raw",
        record=record,
        line_count=len(golden) // line_size,
        corrupted_lines=diff_lines(golden, corrupted, line_size),
    )


def blast_lzw(store: LZWStore, injector: FaultInjector, model: str) -> BlastReport:
    """Inject one fault into a whole-file LZW store and assess the damage.

    The fault lands in the LZW payload (past the ``compress`` magic
    header).  Every code before the first one whose bits the fault
    reaches decodes exactly as in the pristine run, so the decode resumes
    there (:meth:`~repro.compression.lzw.LZWIndex.checkpoint`) and only
    lines from that point on are diffed.  There is no per-line integrity
    for a whole-file codec; ``detected`` records whether the *stream
    itself* rejected the corruption (an invalid dictionary code), which
    is the only detection ``compress`` offers.
    """
    golden, line_size = store.golden, store.line_size
    payload, record = injector.inject(store.blob[HEADER_BYTES:], model)
    record = FaultRecord(
        model=record.model,
        target=record.target,
        offset=record.offset + HEADER_BYTES,
        length=record.length,
        bit=record.bit,
        masks=record.masks,
    )
    checkpoint = store.index.checkpoint(8 * (record.offset - HEADER_BYTES))
    detected = False
    decode_error = None
    try:
        decoded = lzw_decompress(store.blob[:HEADER_BYTES] + payload, resume=checkpoint)
    except ReproError as error:
        detected = True
        decode_error = str(error)
        decoded = b""
    # Lines wholly before the resume point were decoded as in the pristine run.
    clean = 0
    if checkpoint is not None and not detected:
        clean = checkpoint.output_bytes // line_size * line_size
    return BlastReport(
        codec="lzw",
        record=record,
        line_count=len(golden) // line_size,
        corrupted_lines=tuple(
            clean // line_size + line
            for line in diff_lines(golden[clean:], decoded[clean:], line_size)
        ),
        detected=detected,
        decode_error=decode_error,
    )


def _touched_lines(image, memory_image: bytes | None) -> np.ndarray:
    """Lines whose refill inputs differ between ``memory_image`` and the image's own.

    A refill reads the line's 8-byte LAT entry and then the stored range
    that entry names, so a line whose entry and pristine stored range
    both match the pristine memory image fetches exactly the pristine
    block: the same bytes, the same CRC, the same decode.
    """
    if memory_image is None:
        return np.empty(0, dtype=np.int64)
    pristine = np.frombuffer(image.memory_image(), dtype=np.uint8)
    changed = np.flatnonzero(pristine != np.frombuffer(memory_image, dtype=np.uint8))
    lat_bytes = image.lat.storage_bytes
    in_lat = changed[changed < lat_bytes] // ENTRY_BYTES
    from_lat = (in_lat[:, None] * LINES_PER_ENTRY + np.arange(LINES_PER_ENTRY)).ravel()
    ends = np.cumsum([block.stored_size for block in image.blocks]) + lat_bytes
    from_code = np.searchsorted(ends, changed[changed >= lat_bytes], side="right")
    lines = np.union1d(from_lat, from_code)
    return lines[lines < image.line_count]


def refill_survey(
    image,
    policy: str = "detect",
    memory_image: bytes | None = None,
    cache_bytes: int = 1024,
):
    """Walk the lines a corrupted memory image can change through the refill path.

    Runs an :class:`~repro.ccrp.expanding_cache.ExpandingInstructionCache`
    against ``memory_image`` (a corrupted copy of the stored memory
    image; the image's own when ``None``) and returns
    ``(cache, decode_errors)``: the cache's ``integrity_events`` record
    what the refill-time CRC checks saw, and ``decode_errors`` lists
    ``(line, message)`` for lines whose corrupted bytes the Huffman
    decoder refused outright.  Under ``strict`` the first corrupt line
    raises :class:`~repro.errors.IntegrityError`, exactly as the hardware
    trap would — decode errors on unchecked corruption still surface as
    their own :class:`~repro.errors.ReproError` subclasses.

    Only lines whose LAT entry or pristine stored range holds a byte that
    differs from the pristine memory image are walked, in program order:
    every other line fetches its pristine block, which passes its CRC
    and decodes, so the events, errors and first trap are those of a
    walk over every line.
    """
    from repro.ccrp.expanding_cache import ExpandingInstructionCache

    cache = ExpandingInstructionCache(
        image,
        cache_bytes=cache_bytes,
        integrity=policy,
        memory_image=memory_image,
    )
    decode_errors: list[tuple[int, str]] = []
    base = image.text_base
    for line in _touched_lines(image, memory_image).tolist():
        try:
            cache.read_line(base + line * image.line_size)
        except IntegrityError:
            raise
        except ReproError as error:
            decode_errors.append((line, str(error)))
    return cache, decode_errors
