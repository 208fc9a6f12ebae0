"""Multiple-code block compression (paper Section 2.2, last paragraph).

"One possibility is to preselect multiple codes and to use the one that
provides the best compression for each instruction block.  This would
require a small tag that describes which code is used for each block and
that the decode hardware can decompress multiple codes. […] A special
case of the multiple code approach is to use two codes where one is a
Preselected Bounded Huffman code and the other is the original block
encoding."

The CCRP core (:mod:`repro.ccrp`) implements that special case — the
bypass.  This module implements the general scheme: N preselected codes
plus the identity, a per-block tag choosing among them, and a greedy
corpus-partitioning trainer ("the generation of sets of Huffman codes …
is very computationally complex, however … only a good solution, not an
optimal one, is required").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.compression.block import DEFAULT_LINE_SIZE, check_line_size
from repro.compression.huffman import HuffmanCode


@dataclass(frozen=True)
class MultiCodeBlock:
    """One cache line compressed under a code set.

    Attributes:
        code_index: Which code encoded this block; ``None`` marks the
            identity (uncompressed) choice.
        data: Stored bytes (tag excluded; tags live in the LAT-side
            metadata, like the paper's bypass flag).
        bit_length: Exact encoded bits.
    """

    code_index: int | None
    data: bytes
    bit_length: int

    @property
    def stored_size(self) -> int:
        return len(self.data)

    @property
    def is_compressed(self) -> bool:
        return self.code_index is not None


class MultiCodeCompressor:
    """Block compressor choosing the best of several preselected codes.

    Args:
        codes: The decoder's wired-in code set (2-8 codes is realistic
            hardware; the tag needs ``ceil(log2(len(codes) + 1))`` bits
            per block including the identity choice).
        line_size: Cache-line size in bytes.
    """

    def __init__(self, codes: list[HuffmanCode], line_size: int = DEFAULT_LINE_SIZE) -> None:
        if not codes:
            raise CompressionError("need at least one code")
        check_line_size(line_size)
        self.codes = list(codes)
        self.line_size = line_size

    @property
    def tag_bits(self) -> int:
        """Per-block tag width, identity included."""
        return max(1, math.ceil(math.log2(len(self.codes) + 1)))

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------

    def compress_line(self, line: bytes) -> MultiCodeBlock:
        """Encode ``line`` with whichever code stores fewest bytes."""
        if len(line) != self.line_size:
            raise CompressionError(f"line must be {self.line_size} bytes")
        return self.compress_program(line)[0]

    def compress_program(self, text: bytes) -> list[MultiCodeBlock]:
        """Compress a text segment line by line (zero-padded tail).

        A code is eligible for a line when it has a word for every byte and
        stores the line in fewer than ``line_size`` bytes; the first cheapest
        eligible code wins, and a line with none is stored as is.
        """
        lines = _line_matrix([text], self.line_size)
        stored = self._stored_matrix(lines)
        choice = np.where(stored.min(axis=1) < self.line_size, stored.argmin(axis=1), -1)
        blocks = [MultiCodeBlock(None, line.tobytes(), 8 * self.line_size) for line in lines]
        for index, code in enumerate(self.codes):
            rows = np.flatnonzero(choice == index)
            batch = code.encode_lines(lines[rows].tobytes(), self.line_size)
            encoded = (
                zip(batch[0], batch[1].tolist())
                if batch is not None
                else map(code.encode, map(bytes, lines[rows]))  # a code word over 64 bits
            )
            for row, (data, bit_length) in zip(rows.tolist(), encoded):
                blocks[row] = MultiCodeBlock(index, data, bit_length)
        return blocks

    def _stored_matrix(self, lines: np.ndarray) -> np.ndarray:
        """``lines × codes`` stored bytes, capped at ``line_size`` (also where a byte has no word)."""
        stored = np.empty((len(lines), len(self.codes)), dtype=np.int64)
        for index, code in enumerate(self.codes):
            gathered = np.array(code.lengths, dtype=np.int32)[lines]
            stored[:, index] = np.where(gathered.all(1), (gathered.sum(1) + 7) // 8, self.line_size)
        return np.minimum(stored, self.line_size)

    def decompress_block(self, block: MultiCodeBlock) -> bytes:
        if block.code_index is None:
            return block.data
        return self.codes[block.code_index].decode_fast(block.data, self.line_size)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def compressed_size(self, text: bytes) -> int:
        """Stored bytes of ``text`` including the per-block tags (rounded up once).

        Each line costs its cheapest entry of the stored-size matrix; no bitstream is built.
        """
        lines = _line_matrix([text], self.line_size)
        payload = int(self._stored_matrix(lines).min(axis=1).sum())
        return payload + (len(lines) * self.tag_bits + 7) // 8

    def code_usage(self, blocks: list[MultiCodeBlock]) -> dict[int | None, int]:
        """How many blocks each code won (None = identity/bypass)."""
        usage: dict[int | None, int] = {}
        for block in blocks:
            usage[block.code_index] = usage.get(block.code_index, 0) + 1
        return usage


def _line_matrix(texts: list[bytes], line_size: int) -> np.ndarray:
    """Texts, each zero-padded to whole lines, as one ``lines × line_size`` matrix."""
    padded = b"".join(text + bytes(-len(text) % line_size) for text in texts)
    return np.frombuffer(padded, dtype=np.uint8).reshape(-1, line_size)


def train_code_set(
    corpus: list[bytes],
    code_count: int = 2,
    max_length: int = 16,
    line_size: int = DEFAULT_LINE_SIZE,
    refinement_rounds: int = 3,
) -> list[HuffmanCode]:
    """Greedy k-codes training: partition corpus lines among codes.

    A Lloyd-style refinement: start from one global code plus codes
    trained on the worst-compressed lines, then repeatedly (a) assign
    every line to the code that encodes it shortest and (b) retrain each
    code on its assigned lines.  Good, not optimal — per the paper.
    """
    if code_count < 1:
        raise CompressionError("code_count must be at least 1")
    check_line_size(line_size)
    lines = _line_matrix(corpus, line_size)
    if not len(lines):
        raise CompressionError("empty corpus")

    def build(selected: np.ndarray) -> HuffmanCode:
        histogram = np.bincount(selected.ravel(), minlength=256).tolist()
        return HuffmanCode.from_frequencies(histogram, max_length=max_length, cover_all_symbols=True)

    def bits(codes: list[HuffmanCode]) -> np.ndarray:
        """``lines × codes`` encoded bits: each code's lengths gathered by line and summed."""
        return np.stack([np.array(c.lengths, dtype=np.int32)[lines].sum(axis=1) for c in codes], 1)

    codes = [build(lines)]
    while len(codes) < code_count:
        # Seed the next code from the lines the current set handles worst;
        # the stable sort keeps equally bad lines in corpus order.
        worst = np.argsort(-bits(codes).min(axis=1), kind="stable")
        codes.append(build(lines[worst[: max(1, len(lines) // (len(codes) + 1))]]))
    for _ in range(refinement_rounds):
        # argmin breaks ties toward the lowest code index.
        assignment = bits(codes).argmin(axis=1)
        codes = [
            build(lines[assignment == index]) if (assignment == index).any() else code
            for index, code in enumerate(codes)
        ]
    return codes
