"""Canonical Huffman codes: traditional and length-limited (bounded).

Two construction algorithms are provided behind one class:

* :meth:`HuffmanCode.from_frequencies` with ``max_length=None`` builds the
  classic optimal Huffman code [Huffman52] — code words may grow to 255
  bits in the worst case, which is why the paper calls it impractical to
  decode in hardware.
* With ``max_length=N`` it runs the package–merge algorithm (Larmore &
  Hirschberg) to build the *optimal length-limited* code — the paper's
  "Bounded Huffman" uses N = 16.

Code words are canonical (sorted by length, then symbol), so a decoder
needs only the 256 code lengths — this is the "listing of the selected
Huffman code" the paper stores with each program, and what makes the
hard-wired preselected decoder possible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.compression.bitstream import BitWriter

#: Number of symbols: the codecs operate on program bytes.
ALPHABET = 256

#: Text bytes :meth:`HuffmanCode.encode_lines` expands to bits at a time.
ENCODE_CHUNK_BYTES = 16384


def _traditional_lengths(frequencies: list[int]) -> list[int]:
    """Optimal unbounded code lengths via the classic heap algorithm."""
    heap: list[tuple[int, int, tuple[int, ...]]] = []
    for symbol, frequency in enumerate(frequencies):
        if frequency > 0:
            heap.append((frequency, symbol, (symbol,)))
    heapq.heapify(heap)
    if not heap:
        raise CompressionError("cannot build a Huffman code from an empty histogram")
    lengths = [0] * ALPHABET
    if len(heap) == 1:
        lengths[heap[0][1]] = 1
        return lengths
    while len(heap) > 1:
        freq_a, tie_a, symbols_a = heapq.heappop(heap)
        freq_b, tie_b, symbols_b = heapq.heappop(heap)
        for symbol in symbols_a:
            lengths[symbol] += 1
        for symbol in symbols_b:
            lengths[symbol] += 1
        heapq.heappush(heap, (freq_a + freq_b, min(tie_a, tie_b), symbols_a + symbols_b))
    return lengths


def _package_merge(frequencies: list[int], max_length: int) -> list[int]:
    """Optimal length-limited code lengths via package–merge.

    Standard coin-collector formulation: a symbol coded at length ``l``
    contributes coins of denominations 2^-1 … 2^-l; we must buy total
    denomination ``n - 1`` at minimum weight.  Working from the smallest
    denomination (level ``max_length``) upward, each level's items are the
    symbol coins plus pairwise packages from the level below; the answer is
    the 2(n-1) cheapest items at level 1.
    """
    symbols = [(frequency, symbol) for symbol, frequency in enumerate(frequencies) if frequency > 0]
    count = len(symbols)
    if count == 0:
        raise CompressionError("cannot build a Huffman code from an empty histogram")
    lengths = [0] * ALPHABET
    if count == 1:
        lengths[symbols[0][1]] = 1
        return lengths
    if (1 << max_length) < count:
        raise CompressionError(
            f"{count} symbols cannot be coded with max length {max_length}"
        )
    symbols.sort()
    base = [(frequency, (symbol,)) for frequency, symbol in symbols]
    packages: list[tuple[int, tuple[int, ...]]] = []
    for level in range(max_length, 1, -1):
        merged = sorted(base + packages)
        packages = [
            (merged[i][0] + merged[i + 1][0], merged[i][1] + merged[i + 1][1])
            for i in range(0, len(merged) - 1, 2)
        ]
    solution = sorted(base + packages)[: 2 * (count - 1)]
    for _, contained in solution:
        for symbol in contained:
            lengths[symbol] += 1
    return lengths


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical Huffman code over byte symbols.

    Attributes:
        lengths: Code length in bits for each of the 256 symbols
            (0 = symbol has no code and cannot be encoded).
        codes: Canonical code word for each symbol.
    """

    lengths: tuple[int, ...]
    codes: tuple[int, ...]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        frequencies: list[int],
        max_length: int | None = None,
        cover_all_symbols: bool = False,
    ) -> "HuffmanCode":
        """Build a code from a byte histogram.

        Args:
            frequencies: 256 occurrence counts.
            max_length: Bound on code-word length; ``None`` builds the
                traditional unbounded code, ``16`` the paper's Bounded code.
            cover_all_symbols: Give *every* byte value a code even if its
                count is zero (required for preselected codes, which must
                encode programs outside the training corpus).  Implemented
                by add-one smoothing of the histogram.
        """
        if len(frequencies) != ALPHABET:
            raise CompressionError(f"need {ALPHABET} frequencies, got {len(frequencies)}")
        if any(frequency < 0 for frequency in frequencies):
            raise CompressionError("frequencies must be non-negative")
        if cover_all_symbols:
            frequencies = [frequency + 1 for frequency in frequencies]
        if max_length is None:
            lengths = _traditional_lengths(frequencies)
        else:
            lengths = _package_merge(frequencies, max_length)
        return cls.from_lengths(lengths)

    @classmethod
    def from_lengths(cls, lengths: list[int]) -> "HuffmanCode":
        """Assign canonical code words to the given code lengths."""
        if len(lengths) != ALPHABET:
            raise CompressionError(f"need {ALPHABET} lengths, got {len(lengths)}")
        kraft = sum(2.0 ** -length for length in lengths if length > 0)
        if kraft > 1.0 + 1e-9:
            raise CompressionError(f"lengths violate the Kraft inequality ({kraft:.4f} > 1)")
        order = sorted(
            (symbol for symbol in range(ALPHABET) if lengths[symbol] > 0),
            key=lambda symbol: (lengths[symbol], symbol),
        )
        codes = [0] * ALPHABET
        code = 0
        previous_length = 0
        for symbol in order:
            code <<= lengths[symbol] - previous_length
            codes[symbol] = code
            code += 1
            previous_length = lengths[symbol]
        return cls(lengths=tuple(lengths), codes=tuple(codes))

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def max_length(self) -> int:
        """Longest code word in bits."""
        return max(self.lengths)

    @property
    def table_storage_bytes(self) -> int:
        """Bytes needed to store this code with a program.

        A canonical code is fully described by its 256 code lengths, one
        byte each — the "listing of the selected Huffman code" the paper
        charges against per-program codes.
        """
        return ALPHABET

    def _np_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Cached ``(lengths, codes)`` arrays for the vectorized paths.

        ``codes`` is ``None`` when any code word exceeds 64 bits (possible
        for degenerate unbounded codes) — those fall back to the scalar
        bit writer.
        """
        cached = getattr(self, "_np_cache", None)
        if cached is None:
            lengths = np.array(self.lengths, dtype=np.int64)
            codes = (
                np.array(self.codes, dtype=np.uint64)
                if self.max_length <= 64
                else None
            )
            cached = (lengths, codes)
            object.__setattr__(self, "_np_cache", cached)
        return cached

    def checked_bit_lengths(self, symbols: np.ndarray) -> np.ndarray:
        """Code length of each symbol; raises for the first (in data order) without a code."""
        bit_lengths = self._np_arrays()[0][symbols]
        if not bit_lengths.all():
            value = int(symbols[np.argmax(bit_lengths == 0)])
            raise CompressionError(f"symbol {value:#04x} has no code")
        return bit_lengths

    def encoded_bit_length(self, data: bytes) -> int:
        """Exact number of bits ``data`` occupies under this code."""
        return int(self.checked_bit_lengths(np.frombuffer(data, dtype=np.uint8)).sum())

    def symbol_bit_lengths(self, data: bytes) -> list[int]:
        """Per-byte encoded lengths (drives the refill-decoder timing)."""
        lengths, _ = self._np_arrays()
        return lengths[np.frombuffer(data, dtype=np.uint8)].tolist()

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, data: bytes) -> tuple[bytes, int]:
        """Encode ``data``; returns (padded bytes, exact bit length).

        Vectorized: expands every code word into a flat bit array and
        packs it with :func:`np.packbits` — byte-identical to the scalar
        :class:`BitWriter` path (property-tested), which remains as the
        fallback for codes with words longer than 64 bits.
        """
        _, codes_by_symbol = self._np_arrays()
        if codes_by_symbol is None:
            return self._encode_scalar(data)
        symbols = np.frombuffer(data, dtype=np.uint8)
        if symbols.size == 0:
            return b"", 0
        bit_lengths = self.checked_bit_lengths(symbols)
        ends = np.cumsum(bit_lengths)
        total_bits = int(ends[-1])
        starts = ends - bit_lengths
        # One entry per output bit: which symbol it belongs to and the
        # bit's position within that symbol's code word (0 = MSB).
        owner = np.repeat(np.arange(symbols.size), bit_lengths)
        intra = np.arange(total_bits) - starts[owner]
        shift = (bit_lengths[owner] - 1 - intra).astype(np.uint64)
        bits = ((codes_by_symbol[symbols[owner]] >> shift) & np.uint64(1)).astype(
            np.uint8
        )
        return np.packbits(bits).tobytes(), total_bits

    def _encode_scalar(self, data: bytes) -> tuple[bytes, int]:
        """Reference bit-at-a-time encoder (also the >64-bit fallback)."""
        writer = BitWriter()
        lengths, codes = self.lengths, self.codes
        for value in data:
            length = lengths[value]
            if length == 0:
                raise CompressionError(f"symbol {value:#04x} has no code")
            writer.write(codes[value], length)
        return writer.getvalue(), writer.bit_length

    def encode_lines(
        self, data: bytes, line_size: int
    ) -> tuple[list[bytes], np.ndarray] | None:
        """Encode ``data`` as independent equal-sized lines in one pass.

        Each line is encoded exactly as ``encode(line)`` would — its
        stream starts on a byte boundary and is zero-padded to whole
        bytes — but the bit expansion and packing run once over the whole
        segment instead of once per line.  Returns ``(encoded bytes per
        line, exact bit length per line)``, or ``None`` when the code
        needs the scalar fallback (a code word longer than 64 bits).
        """
        if line_size <= 0:
            raise CompressionError(f"line size must be positive, got {line_size}")
        if len(data) % line_size:
            raise CompressionError(
                f"data length {len(data)} is not a multiple of line size {line_size}"
            )
        _, codes_by_symbol = self._np_arrays()
        if codes_by_symbol is None:
            return None
        step = max(1, ENCODE_CHUNK_BYTES // line_size) * line_size
        if len(data) > step:
            # The bit expansion below holds ~8 int64 arrays per encoded bit:
            # 47 MiB for espresso's text in one pass.
            parts = [
                self.encode_lines(data[start : start + step], line_size)
                for start in range(0, len(data), step)
            ]
            encoded = [line for lines, _ in parts for line in lines]
            return encoded, np.concatenate([line_bits for _, line_bits in parts])
        symbols = np.frombuffer(data, dtype=np.uint8)
        line_count = symbols.size // line_size
        if line_count == 0:
            return [], np.zeros(0, dtype=np.int64)
        bit_lengths = self.checked_bit_lengths(symbols)
        line_bits = bit_lengths.reshape(line_count, line_size).sum(axis=1)
        stored_bytes = (line_bits + 7) >> 3
        line_byte_starts = np.zeros(line_count, dtype=np.int64)
        np.cumsum(stored_bytes[:-1], out=line_byte_starts[1:])
        total_bits = int(line_byte_starts[-1] + stored_bytes[-1]) * 8
        # Dense per-symbol bit offsets, then shift every line's codes up
        # to its byte-aligned start (the gap bits stay zero = padding).
        ends = np.cumsum(bit_lengths)
        starts = ends - bit_lengths
        rebase = line_byte_starts * 8 - (ends.reshape(line_count, line_size)[:, -1] - line_bits)
        owner = np.repeat(np.arange(symbols.size), bit_lengths)
        intra = np.arange(int(ends[-1])) - starts[owner]
        line_of_symbol = np.repeat(np.arange(line_count), line_size)
        positions = starts[owner] + rebase[line_of_symbol[owner]] + intra
        shift = (bit_lengths[owner] - 1 - intra).astype(np.uint64)
        bits = np.zeros(total_bits, dtype=np.uint8)
        bits[positions] = (codes_by_symbol[symbols[owner]] >> shift) & np.uint64(1)
        packed = np.packbits(bits).tobytes()
        encoded = [
            packed[start : start + size]
            for start, size in zip(line_byte_starts.tolist(), stored_bytes.tolist())
        ]
        return encoded, line_bits

    def __getstate__(self) -> dict:
        """Drop derived decode/encode tables when pickling.

        Every ``_*_cache`` attribute is rebuilt lazily on demand, and the
        full-window table alone is 128 KiB — without this, each pickled
        image artifact would carry every table the code ever built.
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if not key.endswith("_cache")
        }

    # ------------------------------------------------------------------
    # Table-driven decoding (the "64K mapping ROM" of paper Section 3.4)
    # ------------------------------------------------------------------

    _FAST_BITS = 10

    def decode_fast(self, blob: bytes, symbol_count: int) -> bytes:
        """Decode ``symbol_count`` symbols with a two-level lookup table.

        The paper suggests implementing the hard-wired decoder as "a 64K
        entry mapping ROM"; this is that idea in software: one table
        indexed by the next ``_FAST_BITS`` bits resolves every short code
        in a single lookup, and the rare longer codes fall back to a
        per-word dictionary.  Produces byte-identical output to the
        bit-at-a-time reference decoder of the tests (property-tested)
        at several times the speed.
        """
        fast_bits = self._FAST_BITS
        fast_symbols, fast_lengths, long_table = self._fast_tables()
        max_length = self.max_length
        # A bit accumulator kept topped up to at least `max_length` bits.
        acc = 0
        acc_bits = 0
        position = 0
        total_bits = len(blob) * 8
        decoded = bytearray()
        data = blob
        for _ in range(symbol_count):
            while acc_bits < max_length and position < total_bits:
                acc = (acc << 8) | data[position >> 3]
                position += 8
                acc_bits += 8
            if acc_bits <= 0:
                raise CompressionError("bit stream exhausted")
            if acc_bits >= fast_bits:
                probe = (acc >> (acc_bits - fast_bits)) & ((1 << fast_bits) - 1)
            else:
                probe = (acc << (fast_bits - acc_bits)) & ((1 << fast_bits) - 1)
            length = fast_lengths[probe]
            if length:
                symbol = fast_symbols[probe]
            else:
                symbol = None
                for length in range(fast_bits + 1, max_length + 1):
                    if acc_bits < length:
                        break
                    code = (acc >> (acc_bits - length)) & ((1 << length) - 1)
                    symbol = long_table.get((length, code))
                    if symbol is not None:
                        break
                if symbol is None:
                    raise CompressionError("invalid code word in stream")
            if acc_bits < length:
                raise CompressionError("bit stream exhausted")
            acc_bits -= length
            acc &= (1 << acc_bits) - 1
            decoded.append(symbol)
        return bytes(decoded)

    def _fast_tables(self) -> tuple[bytearray, bytearray, dict[tuple[int, int], int]]:
        """Flat probe tables: symbol and length per ``_FAST_BITS`` prefix.

        Two parallel ``bytearray``s (length 0 = no short code for this
        prefix, fall back to the long-code dictionary) keep the hot loop
        free of tuple unpacking and ``None`` checks — byte indexing is
        the cheapest lookup CPython offers.
        """
        cached = getattr(self, "_fast_cache", None)
        if cached is None:
            fast_bits = self._FAST_BITS
            fast_symbols = bytearray(1 << fast_bits)
            fast_lengths = bytearray(1 << fast_bits)
            long_table: dict[tuple[int, int], int] = {}
            for symbol in range(ALPHABET):
                length = self.lengths[symbol]
                if length == 0:
                    continue
                if length <= fast_bits:
                    prefix = self.codes[symbol] << (fast_bits - length)
                    for suffix in range(1 << (fast_bits - length)):
                        fast_symbols[prefix | suffix] = symbol
                        fast_lengths[prefix | suffix] = length
                else:
                    long_table[(length, self.codes[symbol])] = symbol
            cached = (fast_symbols, fast_lengths, long_table)
            object.__setattr__(self, "_fast_cache", cached)
        return cached

    # ------------------------------------------------------------------
    # Batch line decoding (vectorized companion to encode_lines)
    # ------------------------------------------------------------------

    #: Widest code the full-window table covers: 2^16 entries is exactly
    #: the paper's "64K entry mapping ROM".  Longer (degenerate unbounded)
    #: codes fall back to per-line decode_fast.
    _WINDOW_LIMIT = 16

    def decode_lines(
        self,
        blobs: list[bytes],
        symbol_count: int,
        errors: str = "raise",
    ) -> list[bytes | None]:
        """Decode many independent encoded lines in one vectorized pass.

        Each blob is decoded exactly as ``decode_fast(blob, symbol_count)``
        would decode it — same output bytes, same error classification —
        but all lines advance together: per decoded symbol one gather
        reads a 3-byte window from every line's packed bit stream and one
        full-window table lookup (the "64K mapping ROM" of paper Section
        3.4, materialised as two numpy arrays) resolves the symbol and
        code length for every line at once.  Lines are zero-padded into a
        rectangular byte matrix, so no window ever reads a neighbouring
        line's bits.

        Args:
            blobs: The encoded lines.  Order is preserved.
            symbol_count: Symbols to decode from every blob (the cache
                line size, for block-compressed programs).
            errors: ``"raise"`` propagates the first failing blob's
                :class:`~repro.errors.CompressionError` (same message and
                blob order as a scalar ``decode_fast`` loop); ``"none"``
                returns ``None`` in that blob's slot instead.
        """
        if errors not in ("raise", "none"):
            raise CompressionError(
                f"errors must be 'raise' or 'none', got {errors!r}"
            )
        if symbol_count < 0:
            raise CompressionError(
                f"symbol count cannot be negative, got {symbol_count}"
            )
        blobs = list(blobs)
        if not blobs:
            return []
        if symbol_count == 0:
            return [b""] * len(blobs)
        if self.max_length > self._WINDOW_LIMIT:
            return self._decode_lines_scalar(blobs, symbol_count, errors)

        window_symbols, window_lengths = self._window_tables()
        window_bits = self.max_length
        fast_bits = self._FAST_BITS
        count = len(blobs)
        sizes = np.fromiter((len(blob) for blob in blobs), dtype=np.int64, count=count)
        # Rectangular zero-padded layout; +3 slack bytes so the 3-byte
        # window gather below stays in bounds even at end of stream.
        width = int(sizes.max()) + 3
        data = np.zeros(count * width, dtype=np.uint8)
        flat = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        if flat.size:
            owner = np.repeat(np.arange(count, dtype=np.int64), sizes)
            column = np.arange(flat.size, dtype=np.int64) - np.repeat(
                np.cumsum(sizes) - sizes, sizes
            )
            data[owner * width + column] = flat

        position = np.zeros(count, dtype=np.int64)
        total_bits = sizes * 8
        out = np.zeros((count, symbol_count), dtype=np.uint8)
        #: 0 = decoding, 1 = bit stream exhausted, 2 = invalid code word.
        status = np.zeros(count, dtype=np.uint8)
        live = np.arange(count, dtype=np.int64)
        for index in range(symbol_count):
            if live.size == 0:
                break
            bit_pos = position[live]
            remaining = total_bits[live] - bit_pos
            base = live * width + (bit_pos >> 3)
            window = (
                (data[base].astype(np.int64) << 16)
                | (data[base + 1].astype(np.int64) << 8)
                | data[base + 2].astype(np.int64)
            ) >> (24 - window_bits - (bit_pos & 7))
            window &= (1 << window_bits) - 1
            length = window_lengths[window].astype(np.int64)
            symbol = window_symbols[window]
            # Error classification matches decode_fast exactly: no bits
            # left is exhaustion; a window matching no code is invalid; a
            # matched code longer than the bits left is exhaustion when
            # the fast table found it, invalid when the long-code scan
            # would have given up before reaching its length.
            exhausted = remaining <= 0
            invalid = ~exhausted & (length == 0)
            overrun = ~exhausted & ~invalid & (length > remaining)
            status[live[exhausted | (overrun & (length <= fast_bits))]] = 1
            status[live[invalid | (overrun & (length > fast_bits))]] = 2
            ok = ~(exhausted | invalid | overrun)
            good = live[ok]
            out[good, index] = symbol[ok]
            position[good] = bit_pos[ok] + length[ok]
            live = good

        if errors == "raise":
            bad = np.nonzero(status)[0]
            if bad.size:
                raise CompressionError(
                    "bit stream exhausted"
                    if status[int(bad[0])] == 1
                    else "invalid code word in stream"
                )
        return [
            out[index].tobytes() if status[index] == 0 else None
            for index in range(count)
        ]

    def _decode_lines_scalar(
        self, blobs: list[bytes], symbol_count: int, errors: str
    ) -> list[bytes | None]:
        """Per-line fallback for codes wider than the window table."""
        results: list[bytes | None] = []
        for blob in blobs:
            try:
                results.append(self.decode_fast(blob, symbol_count))
            except CompressionError:
                if errors == "raise":
                    raise
                results.append(None)
        return results

    def _window_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-window lookup: symbol and length per ``max_length`` prefix.

        One entry per possible ``max_length``-bit window; every code word
        owns the contiguous range of windows it prefixes.  Length 0 marks
        windows no code word matches.
        """
        cached = getattr(self, "_window_cache", None)
        if cached is None:
            window_bits = self.max_length
            symbols = np.zeros(1 << window_bits, dtype=np.uint8)
            lengths = np.zeros(1 << window_bits, dtype=np.uint8)
            for symbol in range(ALPHABET):
                length = self.lengths[symbol]
                if length == 0:
                    continue
                start = self.codes[symbol] << (window_bits - length)
                span = 1 << (window_bits - length)
                symbols[start : start + span] = symbol
                lengths[start : start + span] = length
            cached = (symbols, lengths)
            object.__setattr__(self, "_window_cache", cached)
        return cached
