"""MSB-first bit stream output.

The CCRP's refill-engine decoder consumes the compressed stream most
significant bit first, one symbol at a time; :class:`BitWriter` lays code
words out in that order for the scalar Huffman encoder.
"""

from __future__ import annotations

from repro.errors import CompressionError


class BitWriter:
    """Accumulates variable-length codes into a byte string, MSB first."""

    def __init__(self) -> None:
        self._chunks = bytearray()
        self._accumulator = 0
        self._filled = 0  # bits currently in the accumulator

    def write(self, code: int, length: int) -> None:
        """Append the ``length`` low bits of ``code``."""
        if length <= 0:
            raise CompressionError(f"code length must be positive, got {length}")
        if code >> length:
            raise CompressionError(f"code {code:#x} does not fit in {length} bits")
        self._accumulator = (self._accumulator << length) | code
        self._filled += length
        while self._filled >= 8:
            self._filled -= 8
            self._chunks.append((self._accumulator >> self._filled) & 0xFF)
        self._accumulator &= (1 << self._filled) - 1

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return len(self._chunks) * 8 + self._filled

    def getvalue(self) -> bytes:
        """The stream so far, zero-padded to a whole number of bytes."""
        if self._filled == 0:
            return bytes(self._chunks)
        tail = (self._accumulator << (8 - self._filled)) & 0xFF
        return bytes(self._chunks) + bytes([tail])

