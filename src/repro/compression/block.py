"""Block-bounded compression of cache lines (paper Figure 1).

The CCRP compresses each 32-byte instruction-cache line independently so
that the refill engine can decompress any line in isolation.  Compressed
blocks start on an addressable boundary — byte aligned for the best
compression or word aligned to simplify the fetch hardware — and a line
that does not compress below its original size is stored verbatim (the
paper's two-code scheme where the second "code" is the identity), so no
block ever grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import CompressionError
from repro.compression.huffman import HuffmanCode

#: The paper's instruction-cache line size.
DEFAULT_LINE_SIZE = 32

BYTE_ALIGNED = 1
WORD_ALIGNED = 4


def check_line_size(line_size: int) -> None:
    """Reject a cache-line size that is not a positive power of two."""
    if line_size <= 0 or line_size & (line_size - 1):
        raise CompressionError(f"line size {line_size} is not a power of two")


@dataclass(frozen=True)
class CompressedBlock:
    """One cache line after block-bounded compression.

    Attributes:
        data: The stored bytes, already padded to the alignment boundary.
        is_compressed: False if the bypass path stored the line verbatim.
        bit_length: Exact number of encoded bits (before padding); for a
            bypass block this is simply 8 × line size.
        symbol_bits: Encoded length in bits of each original byte — the
            refill-decoder timing model replays these.  ``None`` for
            bypass blocks (they skip the decoder).
    """

    data: bytes
    is_compressed: bool
    bit_length: int
    symbol_bits: tuple[int, ...] | None

    @property
    def stored_size(self) -> int:
        """Bytes this block occupies in instruction memory."""
        return len(self.data)


@dataclass(frozen=True)
class BlockArrays:
    """Columnar numpy view of a block sequence for the vectorized kernels.

    Attributes:
        stored_sizes: Stored bytes of every block, in block order.
        compressed: Boolean mask of blocks that went through the encoder.
        symbol_bits: Per-byte encoded bit lengths (``uint8``) of the
            *compressed* blocks only, one row per block in block order —
            rectangular because every compressed block covers exactly one
            full line.
    """

    stored_sizes: np.ndarray
    compressed: np.ndarray
    symbol_bits: np.ndarray


def build_block_arrays(
    blocks: tuple[CompressedBlock, ...] | list[CompressedBlock], line_size: int
) -> BlockArrays:
    """Build the columnar view of a block sequence.

    Block-bounded compression always produces full-line blocks whose
    code lengths fit a byte, so a compressed block without exactly
    ``line_size`` symbol lengths, or with one over 255 bits, only arises
    in a hand-built block list; it raises
    :class:`~repro.errors.CompressionError` naming the first such block.
    """
    count = len(blocks)
    stored_sizes = np.fromiter(
        (block.stored_size for block in blocks), dtype=np.int64, count=count
    )
    compressed = np.fromiter(
        (block.is_compressed for block in blocks), dtype=bool, count=count
    )
    rows = []
    for index, block in enumerate(blocks):
        if block.is_compressed:
            if block.symbol_bits is None or len(block.symbol_bits) != line_size:
                raise CompressionError(
                    f"block {index}: compressed block lacks {line_size} symbol bit lengths"
                )
            rows.append(block.symbol_bits)
    # One gather of every compressed block's code lengths, one reshape.
    lengths = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=len(rows) * line_size
    ).reshape(len(rows), line_size)
    unfit = ((lengths < 0) | (lengths > 255)).any(axis=1)
    if unfit.any():
        index = int(np.flatnonzero(compressed)[np.argmax(unfit)])
        raise CompressionError(
            f"block {index}: symbol bit length outside 0..255 (symbol_bits is uint8)"
        )
    return BlockArrays(
        stored_sizes=stored_sizes,
        compressed=compressed,
        symbol_bits=lengths.astype(np.uint8),
    )


class BlockCompressor:
    """Compresses a program text segment line by line.

    Args:
        code: The Huffman code shared by compressor and refill decoder.
        line_size: Cache-line size in bytes (32 in the paper).
        alignment: Boundary compressed blocks are padded to; use
            ``BYTE_ALIGNED`` (1) or ``WORD_ALIGNED`` (4).
    """

    def __init__(
        self,
        code: HuffmanCode,
        line_size: int = DEFAULT_LINE_SIZE,
        alignment: int = BYTE_ALIGNED,
    ) -> None:
        check_line_size(line_size)
        if alignment not in (BYTE_ALIGNED, WORD_ALIGNED):
            raise CompressionError(f"alignment must be 1 or 4, got {alignment}")
        self.code = code
        self.line_size = line_size
        self.alignment = alignment

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------

    def compress_line(self, line: bytes) -> CompressedBlock:
        """Compress one full cache line, applying the bypass rule."""
        if len(line) != self.line_size:
            raise CompressionError(
                f"line must be exactly {self.line_size} bytes, got {len(line)}"
            )
        encoded, bit_length = self.code.encode(line)
        stored = self._pad(encoded)
        if len(stored) >= self.line_size:
            return CompressedBlock(
                data=bytes(line),
                is_compressed=False,
                bit_length=8 * self.line_size,
                symbol_bits=None,
            )
        return CompressedBlock(
            data=stored,
            is_compressed=True,
            bit_length=bit_length,
            symbol_bits=tuple(self.code.symbol_bit_lengths(line)),
        )

    def stored_sizes(self, text: bytes) -> np.ndarray:
        """Stored bytes of each line of ``text`` (zero-padded tail), from code lengths alone.

        Each line's bits round up to bytes, then to the alignment, capped at
        ``line_size`` (the bypass); a byte without a code word raises as in
        :meth:`compress_program`.  No bitstream is built.
        """
        line_size = self.line_size
        symbols = np.frombuffer(text + bytes(-len(text) % line_size), dtype=np.uint8)
        bits = self.code.checked_bit_lengths(symbols).reshape(-1, line_size).sum(axis=1)
        # Whole alignment units of 8 × alignment bits: bytes, then the boundary.
        aligned = -(-bits // (8 * self.alignment)) * self.alignment
        return np.minimum(aligned, line_size)

    def compress_program(self, text: bytes) -> list[CompressedBlock]:
        """Split ``text`` into lines (zero-padding the tail) and compress.

        Padding the final partial line with zero bytes mirrors linkers
        padding a text segment to its alignment; zeros are the most common
        byte in RISC code and compress extremely well.

        The bypass follows :meth:`stored_sizes` and all lines are encoded in
        one vectorized pass; the result is identical, line for line, to
        mapping :meth:`compress_line`.
        """
        line_size = self.line_size
        compressed = (self.stored_sizes(text) < line_size).tolist()
        text = text + bytes(-len(text) % line_size)
        batch = self.code.encode_lines(text, line_size)
        if batch is None:  # >64-bit code words: scalar per-line fallback
            return [
                self.compress_line(text[offset : offset + line_size])
                for offset in range(0, len(text), line_size)
            ]
        encoded_lines, line_bits = batch
        # One gather for every line's per-byte code lengths.
        all_symbol_bits = self.code.symbol_bit_lengths(text)
        bit_totals = line_bits.tolist()
        blocks: list[CompressedBlock] = []
        for index, encoded in enumerate(encoded_lines):
            start = index * line_size
            if compressed[index]:
                blocks.append(
                    CompressedBlock(
                        data=self._pad(encoded),
                        is_compressed=True,
                        bit_length=bit_totals[index],
                        symbol_bits=tuple(all_symbol_bits[start : start + line_size]),
                    )
                )
            else:
                blocks.append(
                    CompressedBlock(
                        data=bytes(text[start : start + line_size]),
                        is_compressed=False,
                        bit_length=8 * line_size,
                        symbol_bits=None,
                    )
                )
        return blocks

    # ------------------------------------------------------------------
    # Decompression (the refill engine's functional path)
    # ------------------------------------------------------------------

    def decompress_block(self, block: CompressedBlock) -> bytes:
        """Expand a block back to the original cache line."""
        if not block.is_compressed:
            return block.data
        return self.code.decode_fast(block.data, self.line_size)

    def decompress_program(self, blocks: list[CompressedBlock]) -> bytes:
        """Expand every block, reconstructing the padded text segment.

        All compressed blocks go through one batch ``decode_lines`` pass;
        bypass blocks are spliced back verbatim.  Output (and the first
        failure, for corrupt streams) is identical to mapping
        :meth:`decompress_block`.
        """
        compressed_blobs = [block.data for block in blocks if block.is_compressed]
        decoded = iter(self.code.decode_lines(compressed_blobs, self.line_size))
        return b"".join(
            next(decoded) if block.is_compressed else block.data for block in blocks
        )

    def _pad(self, encoded: bytes) -> bytes:
        if self.alignment == 1 or len(encoded) % self.alignment == 0:
            return encoded
        return encoded + bytes(self.alignment - len(encoded) % self.alignment)
