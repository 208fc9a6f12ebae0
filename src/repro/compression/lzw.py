"""LZW compression in the style of Unix ``compress``.

The paper uses ``compress`` [Welch84] as the reference point for whole-file
compression (Figure 5): effective on moderately sized programs but
impractical for a CCRP because it needs far more context than one cache
line.  This is a from-scratch reimplementation of the same algorithm:
variable-width codes growing from 9 to 16 bits, dictionary frozen once
full.  (Real ``compress`` additionally emits a CLEAR code when the ratio
degrades; program text compresses monotonically enough that freezing gives
near-identical sizes, and the simplification is documented here.)

The three-byte magic header of ``compress`` is charged to the output size
for parity with the paper's measurements.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CompressionError
from repro.compression.bitstream import BitWriter

if TYPE_CHECKING:
    from array import array

#: ``compress`` magic number plus the max-bits flag byte.
HEADER_BYTES = 3

MIN_BITS = 9
DEFAULT_MAX_BITS = 16
MAX_BITS = 24


def _check_max_bits(max_bits: int) -> None:
    # 24 bits is also the widest code the decoder's 32-bit window holds.
    if not MIN_BITS <= max_bits <= MAX_BITS:
        raise CompressionError(f"max_bits {max_bits} out of supported range")


def _lzw_codes(data: bytes, max_bits: int) -> Iterator[tuple[int, int]]:
    """The ``(code, width)`` pairs compress-style LZW emits for ``data``.

    A dictionary string is its prefix's code extended by one byte, so
    the table is keyed on the integer ``(prefix_code << 8) | byte``; a
    single byte is its own code.
    """
    if not data:
        return
    table: dict[int, int] = {}
    next_code = 256
    width = MIN_BITS
    limit = 1 << max_bits

    current = data[0]
    for value in data[1:]:
        key = (current << 8) | value
        code = table.get(key)
        if code is not None:
            current = code
            continue
        yield current, width
        if next_code < limit:
            table[key] = next_code
            next_code += 1
            if next_code > (1 << width) and width < max_bits:
                width += 1
        current = value
    yield current, width


def lzw_compress(data: bytes, max_bits: int = DEFAULT_MAX_BITS) -> bytes:
    """Compress ``data`` with compress-style variable-width LZW."""
    _check_max_bits(max_bits)
    writer = BitWriter()
    for code, width in _lzw_codes(data, max_bits):
        writer.write(code, width)
    return bytes(HEADER_BYTES) + writer.getvalue()


def _width(next_code: int, max_bits: int) -> int:
    """The code width while the table holds ``next_code`` entries.

    The width grows as soon as the encoder's ``next_code`` passes
    ``1 << width``, so it is a function of the table length alone.
    """
    return max(MIN_BITS, min(max_bits, (next_code - 1).bit_length()))


def _decode_codes(
    padded: bytes,
    total_bits: int,
    max_bits: int,
    table: list[bytes],
    previous: bytes,
    output: bytearray,
    position: int,
    columns: tuple[array, array] | None = None,
) -> bytes:
    """Decode every code from bit ``position`` on; the one decode loop.

    The state is the decoder's at a code boundary: the table so far
    (``next_code`` is its length and fixes the width), the string the
    previous code produced, the output so far and the bit position of
    the next code.  ``columns``, when given, receive that position and
    the output length before each code the loop reads.
    """
    next_code = len(table)
    width = _width(next_code, max_bits)
    limit = 1 << max_bits
    # Mirror the encoder: a new table entry is created per emitted code, and
    # the width grows when the *encoder's* next_code passes the width limit.
    while total_bits - position >= width:
        if columns is not None:
            columns[0].append(position)
            columns[1].append(len(output))
        if next_code < limit:
            pending = next_code
            next_code += 1
            if next_code > (1 << width) and width < max_bits:
                width += 1
                if total_bits - position < width:
                    break
        else:
            pending = None
        start = position >> 3
        code = (
            int.from_bytes(padded[start : start + 4], "big") >> (32 - width - (position & 7))
        ) & ((1 << width) - 1)
        position += width
        if code < len(table):
            entry = table[code]
        elif code == pending:
            entry = previous + previous[:1]
        else:
            raise CompressionError(f"corrupt LZW stream: code {code}")
        if pending is not None:
            table.append(previous + entry[:1])
        output.extend(entry)
        previous = entry
    return bytes(output)


def _first_code(padded: bytes, total_bits: int) -> tuple[list[bytes], bytes, bytearray, int]:
    """The decoder state after the stream's first (always 9-bit) code."""
    # Indexed by code; entry ``pending`` is appended once it is known.
    table = [bytes([value]) for value in range(256)]
    if total_bits < MIN_BITS:
        raise CompressionError("bit stream exhausted")
    code = int.from_bytes(padded[:4], "big") >> (32 - MIN_BITS)
    if code >= len(table):
        raise CompressionError(f"corrupt LZW stream: code {code}")
    previous = table[code]
    return table, previous, bytearray(previous), MIN_BITS


@dataclass(frozen=True)
class LZWIndex:
    """One pristine decode of a stream, indexed by code so a decode can resume.

    Code ``i`` starts at payload bit ``positions[i]`` and follows
    ``lengths[i]`` bytes of output.  The table only ever grows by one
    entry per code, so before code ``i >= 1`` it is the first
    ``min(255 + i, 1 << max_bits)`` entries of the final ``table``, and
    the previous string is ``output[lengths[i - 1]:lengths[i]]``.

    Attributes:
        max_bits: The stream's widest code.
        output: The decoded stream.
        table: The final dictionary.
        positions: Payload bit where each code starts.
        lengths: Output bytes decoded before each code.
    """

    max_bits: int
    output: bytes
    table: tuple[bytes, ...]
    positions: array
    lengths: array

    @classmethod
    def build(cls, blob: bytes, max_bits: int = DEFAULT_MAX_BITS) -> LZWIndex:
        """Decode ``blob`` once, recording where each code starts."""
        # Imported here: loading the extension module costs every process
        # that imports this one resident memory, and only fault trials index.
        from array import array

        _check_max_bits(max_bits)
        payload = blob[HEADER_BYTES:]
        positions, lengths = array("I"), array("I")
        table: list[bytes] = []
        output = b""
        if payload:
            padded = payload + bytes(4)
            total_bits = len(payload) * 8
            table, previous, decoded, position = _first_code(padded, total_bits)
            positions.append(0)
            lengths.append(0)
            output = _decode_codes(
                padded, total_bits, max_bits, table, previous, decoded, position,
                (positions, lengths),
            )
        return cls(max_bits, output, tuple(table), positions, lengths)

    def checkpoint(self, bit: int) -> LZWCheckpoint | None:
        """Where to resume a stream that matches this one before payload ``bit``.

        The first code whose bits reach ``bit`` is the last one that
        starts at or before it; ``None`` when that is the first code,
        whose decode has no loop state to resume from.
        """
        code = bisect_right(self.positions, bit) - 1
        return LZWCheckpoint(self, code) if code > 0 else None


@dataclass(frozen=True)
class LZWCheckpoint:
    """The decoder state of an :class:`LZWIndex` stream before one code."""

    index: LZWIndex
    code: int

    @property
    def output_bytes(self) -> int:
        """Output bytes the stream has produced before this code."""
        return self.index.lengths[self.code]

    def state(self) -> tuple[list[bytes], bytes, bytearray, int]:
        """A fresh ``(table, previous, output, position)`` to decode on from."""
        index, code = self.index, self.code
        start, end = index.lengths[code - 1], index.lengths[code]
        table_size = min(255 + code, 1 << index.max_bits)
        return (
            list(index.table[:table_size]),
            index.output[start:end],
            bytearray(memoryview(index.output)[:end]),
            index.positions[code],
        )


def lzw_decompress(
    blob: bytes,
    max_bits: int = DEFAULT_MAX_BITS,
    resume: LZWCheckpoint | None = None,
) -> bytes:
    """Invert :func:`lzw_compress`.

    Codes are read MSB first from an integer bit position over the payload
    padded with four zero bytes: a code of up to 24 bits starting at bit
    offset 0-7 of a byte always lies inside the 32-bit big-endian window
    beginning at that byte, so one slice and one shift extract it.

    ``resume`` starts the decode at a code of a pristine stream
    (:meth:`LZWIndex.checkpoint`) that ``blob`` matches bit for bit up to
    that code: the result is the same as decoding from the start.
    """
    _check_max_bits(max_bits)
    payload = blob[HEADER_BYTES:]
    if not payload:
        return b""
    padded = payload + bytes(4)
    total_bits = len(payload) * 8
    if resume is None:
        state = _first_code(padded, total_bits)
    elif resume.index.max_bits != max_bits:
        raise CompressionError(
            f"checkpoint of a {resume.index.max_bits}-bit stream, decoding {max_bits}-bit"
        )
    else:
        state = resume.state()
    return _decode_codes(padded, total_bits, max_bits, *state)


def lzw_compressed_size(data: bytes, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """``len(lzw_compress(data, max_bits))``, summing code widths instead of writing bits."""
    _check_max_bits(max_bits)
    bits = sum(width for _code, width in _lzw_codes(data, max_bits))
    return HEADER_BYTES + (bits + 7) // 8
