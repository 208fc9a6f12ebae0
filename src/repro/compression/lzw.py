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

from collections.abc import Iterator

from repro.errors import CompressionError
from repro.compression.bitstream import BitWriter

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


def lzw_decompress(blob: bytes, max_bits: int = DEFAULT_MAX_BITS) -> bytes:
    """Invert :func:`lzw_compress`.

    Codes are read MSB first from an integer bit position over the payload
    padded with four zero bytes: a code of up to 24 bits starting at bit
    offset 0-7 of a byte always lies inside the 32-bit big-endian window
    beginning at that byte, so one slice and one shift extract it.
    """
    _check_max_bits(max_bits)
    payload = blob[HEADER_BYTES:]
    if not payload:
        return b""

    # Indexed by code; entry ``pending`` is appended once it is known.
    table = [bytes([value]) for value in range(256)]
    next_code = 256
    width = MIN_BITS
    limit = 1 << max_bits
    padded = payload + bytes(4)
    total_bits = len(payload) * 8
    if total_bits < width:
        raise CompressionError("bit stream exhausted")

    code = int.from_bytes(padded[:4], "big") >> (32 - width)
    position = width
    if code >= len(table):
        raise CompressionError(f"corrupt LZW stream: code {code}")
    previous = table[code]
    output = bytearray(previous)
    # Mirror the encoder: a new table entry is created per emitted code, and
    # the width grows when the *encoder's* next_code passes the width limit.
    while total_bits - position >= width:
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


def lzw_compressed_size(data: bytes, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """``len(lzw_compress(data, max_bits))``, summing code widths instead of writing bits."""
    _check_max_bits(max_bits)
    bits = sum(width for _code, width in _lzw_codes(data, max_bits))
    return HEADER_BYTES + (bits + 7) // 8
