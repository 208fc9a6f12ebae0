"""The bit-at-a-time Huffman decoder: the reference for the table-driven ones.

:meth:`~repro.compression.huffman.HuffmanCode.decode_fast` and
:meth:`~repro.compression.huffman.HuffmanCode.decode_lines` resolve code
words through lookup tables.  :func:`decode` reads one bit at a time and
looks every ``(length, code word)`` prefix up in a dictionary of the
code's words: slow, but with no table to get wrong.  :class:`BitReader`
is its MSB-first bit source, the mirror of
:class:`~repro.compression.bitstream.BitWriter`; the bit-serial LZW
reference of ``test_compression_lzw_block.py`` reads through it too.
"""

from __future__ import annotations

from repro.compression.huffman import ALPHABET, HuffmanCode
from repro.errors import CompressionError


class BitReader:
    """Reads bits MSB-first from a byte string."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._position = 0  # bit cursor

    @property
    def position(self) -> int:
        """Current bit offset from the start of the stream."""
        return self._position

    @property
    def remaining(self) -> int:
        """Bits left before the end of the underlying bytes."""
        return len(self._data) * 8 - self._position

    def read_bit(self) -> int:
        if self._position >= len(self._data) * 8:
            raise CompressionError("bit stream exhausted")
        byte = self._data[self._position >> 3]
        bit = (byte >> (7 - (self._position & 7))) & 1
        self._position += 1
        return bit

    def read(self, count: int) -> int:
        """Read ``count`` bits as one unsigned integer."""
        if count < 0:
            raise CompressionError(f"cannot read {count} bits")
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value


def decode(code: HuffmanCode, blob: bytes, symbol_count: int) -> bytes:
    """Decode ``symbol_count`` symbols from ``blob`` one bit at a time."""
    table = {
        (code.lengths[symbol], code.codes[symbol]): symbol
        for symbol in range(ALPHABET)
        if code.lengths[symbol] > 0
    }
    reader = BitReader(blob)
    decoded = bytearray()
    for _ in range(symbol_count):
        word = 0
        length = 0
        while True:
            word = (word << 1) | reader.read_bit()
            length += 1
            symbol = table.get((length, word))
            if symbol is not None:
                decoded.append(symbol)
                break
            if length > code.max_length:
                raise CompressionError("invalid code word in stream")
    return bytes(decoded)
