"""The full Line Address Table over a compressed program.

Builds packed :class:`~repro.lat.entry.LATEntry` records from a block
layout, serialises them for storage in instruction memory, and answers the
refill engine's question: *where is the compressed block for original line
N, and how big is it?*

The paper also discusses a naive alternative — a flat 4-byte pointer per
line, costing 12.5 % instead of 3.125 % — reproduced here as
:meth:`LineAddressTable.naive_overhead_bytes` for the ablation experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LATError
from repro.compression.block import CompressedBlock
from repro.lat.entry import (
    ENTRY_BYTES,
    LINES_PER_ENTRY,
    LATEntry,
    UNCOMPRESSED_BYTES,
)


@dataclass(frozen=True)
class BlockLocation:
    """Where one original line lives in compressed memory."""

    address: int
    stored_size: int
    is_compressed: bool


class LineAddressTable:
    """LAT for a program laid out contiguously in instruction memory.

    Args:
        blocks: The compressed blocks, in original line order.
        code_base: Physical address where block 0 is stored; blocks are
            laid out back to back from there.
    """

    def __init__(self, blocks: list[CompressedBlock], code_base: int) -> None:
        if code_base < 0:
            raise LATError(f"code base must be non-negative, got {code_base:#x}")
        self.code_base = code_base
        self.line_count = len(blocks)
        self.entries: list[LATEntry] = []
        address = code_base
        for group_start in range(0, len(blocks), LINES_PER_ENTRY):
            group = blocks[group_start : group_start + LINES_PER_ENTRY]
            lengths = [block.stored_size for block in group]
            # Groups at the program tail cover fewer than eight real lines;
            # pad with the uncompressed sentinel (those slots are never
            # addressed, but the packed form needs a legal value).
            lengths += [UNCOMPRESSED_BYTES] * (LINES_PER_ENTRY - len(group))
            self.entries.append(LATEntry(base=address, lengths=tuple(lengths)))
            address += sum(block.stored_size for block in group)
        self._compressed_flags = [block.is_compressed for block in blocks]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def entry_index(self, line_number: int) -> int:
        """LAT index for an original line number (address >> 5)."""
        return line_number // LINES_PER_ENTRY

    def entry_for_line(self, line_number: int) -> LATEntry:
        self._check_line(line_number)
        return self.entries[line_number // LINES_PER_ENTRY]

    def locate(self, line_number: int) -> BlockLocation:
        """Find the compressed block holding original line ``line_number``."""
        self._check_line(line_number)
        entry = self.entries[line_number // LINES_PER_ENTRY]
        slot = line_number % LINES_PER_ENTRY
        return BlockLocation(
            address=entry.block_address(slot),
            stored_size=entry.block_size(slot),
            is_compressed=self._compressed_flags[line_number],
        )

    def _check_line(self, line_number: int) -> None:
        if not 0 <= line_number < self.line_count:
            raise LATError(
                f"line {line_number} outside program ({self.line_count} lines)"
            )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    @property
    def storage_bytes(self) -> int:
        """Bytes the packed LAT occupies in instruction memory."""
        return len(self.entries) * ENTRY_BYTES

    @property
    def naive_overhead_bytes(self) -> int:
        """Bytes a flat 4-byte-pointer-per-line LAT would have needed."""
        return self.line_count * 4

    def overhead_ratio(self) -> float:
        """LAT bytes as a fraction of the original program size."""
        if self.line_count == 0:
            return 0.0
        return self.storage_bytes / (self.line_count * 32)

    # ------------------------------------------------------------------
    # Binary form
    # ------------------------------------------------------------------

    def serialize(self) -> bytes:
        """Pack every entry for storage in instruction memory."""
        return b"".join(entry.encode() for entry in self.entries)

    @classmethod
    def entry_from_memory(cls, raw: bytes) -> LATEntry:
        """Decode one in-memory entry (what a CLB refill reads)."""
        return LATEntry.decode(raw)
