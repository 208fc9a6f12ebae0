"""Tests for bitstream I/O and the Huffman code family."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompressionError
from repro.compression.bitstream import BitWriter
from repro.compression.histogram import byte_histogram, corpus_histogram, merge_histograms
from repro.compression import huffman
from repro.compression.huffman import HuffmanCode
from repro.compression.preselected import build_preselected_code

from huffman_oracle import BitReader
from huffman_oracle import decode as reference_decode


class TestBitstream:
    def test_write_read_single_bits(self):
        writer = BitWriter()
        for bit in (1, 0, 1, 1, 0):
            writer.write(bit, 1)
        reader = BitReader(writer.getvalue())
        assert [reader.read_bit() for _ in range(5)] == [1, 0, 1, 1, 0]

    def test_multibit_codes_msb_first(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        writer.write(0b01, 2)
        assert writer.getvalue() == bytes([0b10101000])

    def test_bit_length_tracks_exactly(self):
        writer = BitWriter()
        writer.write(0x7, 3)
        writer.write(0x1FF, 9)
        assert writer.bit_length == 12

    def test_cross_byte_boundary(self):
        writer = BitWriter()
        writer.write(0xABC, 12)
        writer.write(0xDE, 8)
        reader = BitReader(writer.getvalue())
        assert reader.read(12) == 0xABC
        assert reader.read(8) == 0xDE

    def test_code_wider_than_value_rejected(self):
        with pytest.raises(CompressionError):
            BitWriter().write(0b100, 2)

    def test_zero_length_rejected(self):
        with pytest.raises(CompressionError):
            BitWriter().write(0, 0)

    def test_reading_past_end_raises(self):
        reader = BitReader(b"\xff")
        reader.read(8)
        with pytest.raises(CompressionError):
            reader.read_bit()

    def test_remaining_and_position(self):
        reader = BitReader(b"\x00\x00")
        reader.read(5)
        assert reader.position == 5
        assert reader.remaining == 11

    @given(st.lists(st.tuples(st.integers(1, 24), st.data()), min_size=1, max_size=50))
    def test_round_trip_random_codes(self, raw):
        pairs = []
        writer = BitWriter()
        for length, data in raw:
            value = data.draw(st.integers(0, (1 << length) - 1))
            pairs.append((value, length))
            writer.write(value, length)
        reader = BitReader(writer.getvalue())
        for value, length in pairs:
            assert reader.read(length) == value


class TestHistogram:
    def test_byte_histogram_counts(self):
        histogram = byte_histogram(b"\x00\x00\x01\xff")
        assert histogram[0] == 2
        assert histogram[1] == 1
        assert histogram[255] == 1
        assert sum(histogram) == 4

    def test_merge(self):
        merged = merge_histograms([byte_histogram(b"\x00"), byte_histogram(b"\x00\x01")])
        assert merged[0] == 2 and merged[1] == 1

    def test_merge_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            merge_histograms([[1, 2, 3]])

    def test_corpus_histogram(self):
        histogram = corpus_histogram([b"\x10", b"\x10\x20"])
        assert histogram[0x10] == 2 and histogram[0x20] == 1


class TestTraditionalHuffman:
    def test_two_symbols_get_one_bit_each(self):
        frequencies = [0] * 256
        frequencies[65], frequencies[66] = 10, 3
        code = HuffmanCode.from_frequencies(frequencies)
        assert code.lengths[65] == 1 and code.lengths[66] == 1

    def test_skewed_distribution_gives_short_code_to_common_symbol(self):
        frequencies = [0] * 256
        frequencies[0] = 1000
        for symbol in range(1, 17):
            frequencies[symbol] = 1
        code = HuffmanCode.from_frequencies(frequencies)
        assert code.lengths[0] == 1
        assert all(code.lengths[s] > 1 for s in range(1, 17))

    def test_single_symbol_gets_length_one(self):
        frequencies = [0] * 256
        frequencies[7] = 42
        code = HuffmanCode.from_frequencies(frequencies)
        assert code.lengths[7] == 1

    def test_empty_histogram_rejected(self):
        with pytest.raises(CompressionError):
            HuffmanCode.from_frequencies([0] * 256)

    def test_negative_frequency_rejected(self):
        frequencies = [0] * 256
        frequencies[0] = -1
        with pytest.raises(CompressionError):
            HuffmanCode.from_frequencies(frequencies)

    def test_kraft_equality_for_full_tree(self):
        data = bytes(random.Random(1).randbytes(4096))
        code = HuffmanCode.from_frequencies(byte_histogram(data))
        kraft = sum(2.0 ** -l for l in code.lengths if l)
        assert kraft == pytest.approx(1.0)

    def test_round_trip(self):
        data = b"the quick brown fox jumps over the lazy dog" * 10
        code = HuffmanCode.from_frequencies(byte_histogram(data))
        blob, bits = code.encode(data)
        assert len(blob) == (bits + 7) // 8
        assert reference_decode(code, blob, len(data)) == data

    def test_encoding_unknown_symbol_raises(self):
        frequencies = [0] * 256
        frequencies[65] = 1
        frequencies[66] = 1
        code = HuffmanCode.from_frequencies(frequencies)
        with pytest.raises(CompressionError):
            code.encode(b"C")

    def test_optimality_beats_fixed_width(self):
        # Huffman on skewed data must beat the 8-bit fixed encoding.
        data = b"\x00" * 900 + bytes(range(100))
        code = HuffmanCode.from_frequencies(byte_histogram(data))
        assert code.encoded_bit_length(data) < 8 * len(data)

    def test_matches_entropy_bound(self):
        import math

        data = bytes(random.Random(2).choices(range(8), weights=[64, 32, 16, 8, 4, 2, 1, 1], k=8192))
        histogram = byte_histogram(data)
        code = HuffmanCode.from_frequencies(histogram)
        entropy_bits = -sum(
            count * math.log2(count / len(data)) for count in histogram if count
        )
        encoded_bits = code.encoded_bit_length(data)
        assert entropy_bits <= encoded_bits <= entropy_bits + len(data)  # within 1 bit/symbol


class TestBoundedHuffman:
    def test_respects_length_bound(self):
        # Fibonacci-like frequencies force very skewed traditional codes.
        frequencies = [0] * 256
        a, b = 1, 1
        for symbol in range(30):
            frequencies[symbol] = a
            a, b = b, a + b
        traditional = HuffmanCode.from_frequencies(frequencies)
        bounded = HuffmanCode.from_frequencies(frequencies, max_length=16)
        assert traditional.max_length > 16
        assert bounded.max_length <= 16

    def test_bound_costs_little(self):
        data = bytes(random.Random(3).randbytes(8192))
        histogram = byte_histogram(data)
        traditional = HuffmanCode.from_frequencies(histogram)
        bounded = HuffmanCode.from_frequencies(histogram, max_length=16)
        cost = bounded.encoded_bit_length(data) / traditional.encoded_bit_length(data)
        assert 1.0 <= cost < 1.05

    def test_matches_traditional_when_bound_is_loose(self):
        frequencies = [0] * 256
        for symbol in range(16):
            frequencies[symbol] = 5  # uniform: all lengths 4
        traditional = HuffmanCode.from_frequencies(frequencies)
        bounded = HuffmanCode.from_frequencies(frequencies, max_length=16)
        assert traditional.lengths == bounded.lengths

    def test_kraft_satisfied(self):
        frequencies = [0] * 256
        a, b = 1, 1
        for symbol in range(40):
            frequencies[symbol] = a
            a, b = b, a + b if a + b < 10**9 else a
        bounded = HuffmanCode.from_frequencies(frequencies, max_length=12)
        kraft = sum(2.0 ** -l for l in bounded.lengths if l)
        assert kraft <= 1.0 + 1e-12

    def test_round_trip_bounded(self):
        data = bytes(random.Random(4).randbytes(2048))
        code = HuffmanCode.from_frequencies(byte_histogram(data), max_length=16)
        blob, _ = code.encode(data)
        assert reference_decode(code, blob, len(data)) == data

    def test_impossible_bound_rejected(self):
        frequencies = [1] * 256
        with pytest.raises(CompressionError):
            HuffmanCode.from_frequencies(frequencies, max_length=7)

    def test_bound_exactly_feasible(self):
        frequencies = [1] * 256
        code = HuffmanCode.from_frequencies(frequencies, max_length=8)
        assert all(length == 8 for length in code.lengths)

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=2, max_size=512), st.integers(10, 16))
    def test_property_round_trip_and_bound(self, data, max_length):
        code = HuffmanCode.from_frequencies(byte_histogram(data), max_length=max_length)
        assert code.max_length <= max_length
        blob, bits = code.encode(data)
        assert reference_decode(code, blob, len(data)) == data
        assert bits == code.encoded_bit_length(data)


class TestPreselectedCode:
    def test_covers_all_symbols(self):
        code = build_preselected_code([b"\x00\x01\x02" * 100])
        assert all(length > 0 for length in code.lengths)
        assert code.max_length <= 16

    def test_encodes_bytes_outside_corpus(self):
        code = build_preselected_code([b"\x00" * 64])
        blob, _ = code.encode(b"\xde\xad\xbe\xef")
        assert reference_decode(code, blob, 4) == b"\xde\xad\xbe\xef"

    def test_common_corpus_bytes_get_short_codes(self):
        corpus = [b"\x00" * 1000 + bytes(range(256))]
        code = build_preselected_code(corpus)
        assert code.lengths[0] < code.lengths[0xAB]


class TestCanonicalCodes:
    def test_canonical_ordering(self):
        frequencies = [0] * 256
        frequencies[10], frequencies[20], frequencies[30] = 8, 4, 4
        code = HuffmanCode.from_frequencies(frequencies)
        # Same-length codes must be ordered by symbol.
        assert code.codes[20] < code.codes[30]
        assert code.lengths[20] == code.lengths[30]

    def test_from_lengths_round_trip(self):
        frequencies = [0] * 256
        for symbol in range(12):
            frequencies[symbol] = 1 + symbol * symbol
        original = HuffmanCode.from_frequencies(frequencies, max_length=16)
        rebuilt = HuffmanCode.from_lengths(list(original.lengths))
        assert rebuilt == original

    def test_from_lengths_rejects_kraft_violation(self):
        lengths = [1] * 3 + [0] * 253
        with pytest.raises(CompressionError):
            HuffmanCode.from_lengths(lengths)

    def test_table_storage_bytes(self):
        frequencies = [0] * 256
        frequencies[0] = frequencies[1] = 1
        assert HuffmanCode.from_frequencies(frequencies).table_storage_bytes == 256

    def test_prefix_free(self):
        data = bytes(random.Random(5).randbytes(4096))
        code = HuffmanCode.from_frequencies(byte_histogram(data), max_length=16)
        words = [
            (code.lengths[s], code.codes[s]) for s in range(256) if code.lengths[s]
        ]
        for length_a, code_a in words:
            for length_b, code_b in words:
                if (length_a, code_a) == (length_b, code_b):
                    continue
                if length_a <= length_b:
                    assert code_b >> (length_b - length_a) != code_a

    def test_symbol_bit_lengths(self):
        frequencies = [0] * 256
        frequencies[65], frequencies[66] = 3, 1
        code = HuffmanCode.from_frequencies(frequencies)
        assert code.symbol_bit_lengths(b"AAB") == [1, 1, 1]

    def test_decode_invalid_stream_raises(self):
        frequencies = [0] * 256
        frequencies[0], frequencies[1] = 1, 1  # codes: 0 and 1, both length 1
        code = HuffmanCode.from_frequencies(frequencies)
        # Any bit decodes, so ask for more symbols than the stream holds.
        with pytest.raises(CompressionError):
            code.decode_fast(b"", 1)


class TestFastDecoder:
    """decode_fast must be byte-identical to the bit-by-bit reference decoder
    of ``tests/huffman_oracle.py``."""

    def _random_code(self, seed: int, max_length: int | None = 16) -> HuffmanCode:
        data = bytes(random.Random(seed).randbytes(4096))
        return HuffmanCode.from_frequencies(
            byte_histogram(data), max_length=max_length, cover_all_symbols=True
        )

    def test_matches_reference_decoder(self):
        code = self._random_code(60)
        data = bytes(random.Random(61).randbytes(2000))
        blob, _ = code.encode(data)
        reference = reference_decode(code, blob, len(data))
        assert code.decode_fast(blob, len(data)) == reference == data

    def test_handles_long_codes_past_fast_bits(self):
        # Fibonacci frequencies force codes longer than the 10-bit table.
        frequencies = [0] * 256
        a, b = 1, 1
        for symbol in range(24):
            frequencies[symbol] = a
            a, b = b, a + b
        code = HuffmanCode.from_frequencies(frequencies, max_length=16)
        assert code.max_length > 10
        data = bytes(range(24)) * 20
        blob, _ = code.encode(data)
        assert code.decode_fast(blob, len(data)) == data

    def test_exhausted_stream_raises(self):
        code = self._random_code(62)
        with pytest.raises(CompressionError):
            code.decode_fast(b"", 1)

    def test_short_final_symbol_at_stream_edge(self):
        # A single symbol padded into one byte must still decode.
        frequencies = [0] * 256
        frequencies[65], frequencies[66] = 3, 1
        code = HuffmanCode.from_frequencies(frequencies)
        blob, _ = code.encode(b"ABBA")
        assert code.decode_fast(blob, 4) == b"ABBA"

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=400), st.integers(0, 10_000))
    def test_property_equivalence(self, data, seed):
        code = self._random_code(seed)
        blob, _ = code.encode(data)
        assert code.decode_fast(blob, len(data)) == data

    def test_exhaustion_mid_accumulator_matches_reference(self):
        # A code whose every word is 9 bits: one blob byte leaves 8 bits
        # in the accumulator — fewer than any code word — so the fast
        # decoder must fail exactly like the bit-by-bit one, not emit a
        # phantom symbol from the partial accumulator.
        code = HuffmanCode.from_lengths([9] * 256)
        blob, _ = code.encode(bytes([1, 2]))
        assert code.decode_fast(blob, 2) == bytes([1, 2])
        with pytest.raises(CompressionError):
            code.decode_fast(blob[:1], 2)
        with pytest.raises(CompressionError):
            reference_decode(code, blob[:1], 2)

    def test_truncated_stream_matches_reference(self):
        code = self._random_code(63)
        data = bytes(random.Random(64).randbytes(300))
        blob, _ = code.encode(data)
        truncated = blob[: len(blob) // 2]
        with pytest.raises(CompressionError):
            code.decode_fast(truncated, len(data))
        with pytest.raises(CompressionError):
            reference_decode(code, truncated, len(data))

    def test_max_length_code_words_decode(self):
        # Exponential frequencies push the least-frequent symbols to the
        # 16-bit bound; those maximal words must decode through the
        # long-code fallback identically to the reference decoder.
        frequencies = [0] * 256
        for symbol in range(32):
            frequencies[symbol] = 1 << symbol
        code = HuffmanCode.from_frequencies(frequencies, max_length=16)
        assert code.max_length == 16
        maximal = [symbol for symbol in range(32) if code.lengths[symbol] == 16]
        assert maximal
        data = bytes(maximal) * 5 + bytes(range(32)) * 3 + bytes(maximal)
        blob, _ = code.encode(data)
        reference = reference_decode(code, blob, len(data))
        assert code.decode_fast(blob, len(data)) == reference == data

    def test_bypass_blocks_skip_the_decoder_entirely(self):
        # Incompressible lines take the bypass path: stored verbatim with
        # no symbol timings; compressed lines must still round-trip
        # through both decoders.
        from repro.compression.block import BlockCompressor

        code = self._random_code(65)
        rng = random.Random(66)
        compressible = bytes(rng.choices(range(8), k=64))
        incompressible = bytes(rng.randbytes(32))
        blocks = BlockCompressor(code).compress_program(compressible + incompressible)
        assert any(not block.is_compressed for block in blocks)
        offset = 0
        for block in blocks:
            line = (compressible + incompressible)[offset : offset + 32]
            if block.is_compressed:
                assert code.decode_fast(block.data, len(line)) == line
                assert reference_decode(code, block.data, len(line)) == line
            else:
                assert block.data == line
                assert block.symbol_bits is None
            offset += 32


class TestFastDecoderTableBoundary:
    """Code words at, just under, and just past the 10-bit probe table."""

    @pytest.mark.parametrize("length", [9, 10, 11])
    def test_uniform_lengths_around_fast_bits(self, length):
        assert HuffmanCode._FAST_BITS == 10
        code = HuffmanCode.from_lengths([length] * 256)
        data = bytes(range(256)) * 4
        blob, _ = code.encode(data)
        reference = reference_decode(code, blob, len(data))
        assert code.decode_fast(blob, len(data)) == reference == data

    def test_code_straddling_fast_bits(self):
        # Half the symbols resolve in the probe table, half overflow to
        # the long-code fallback — exercised within the same stream.
        code = HuffmanCode.from_lengths([9] * 128 + [11] * 128)
        data = bytes(random.Random(77).randbytes(3000))
        blob, _ = code.encode(data)
        reference = reference_decode(code, blob, len(data))
        assert code.decode_fast(blob, len(data)) == reference == data

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=200), st.sampled_from([9, 10, 11]))
    def test_property_boundary_round_trip(self, data, length):
        code = HuffmanCode.from_lengths([length] * 256)
        blob, _ = code.encode(data)
        assert code.decode_fast(blob, len(data)) == data


class TestVectorizedEncode:
    """The numpy bit-packer must be byte-identical to the BitWriter."""

    def _random_code(self, seed: int) -> HuffmanCode:
        data = bytes(random.Random(seed).randbytes(4096))
        return HuffmanCode.from_frequencies(
            byte_histogram(data), max_length=16, cover_all_symbols=True
        )

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=0, max_size=400), st.integers(0, 10_000))
    def test_property_matches_scalar(self, data, seed):
        code = self._random_code(seed)
        assert code.encode(data) == code._encode_scalar(data)

    def test_bit_length_agrees_across_queries(self):
        code = self._random_code(7)
        data = bytes(random.Random(8).randbytes(500))
        _, total_bits = code.encode(data)
        assert total_bits == code.encoded_bit_length(data)
        assert total_bits == sum(code.symbol_bit_lengths(data))

    def test_empty_input(self):
        code = self._random_code(9)
        assert code.encode(b"") == code._encode_scalar(b"") == (b"", 0)

    def test_uncodable_symbol_raises_in_both_paths(self):
        code = HuffmanCode.from_frequencies(
            byte_histogram(b"abcabcab"), cover_all_symbols=False
        )
        with pytest.raises(CompressionError):
            code.encode(b"abcZ")
        with pytest.raises(CompressionError):
            code._encode_scalar(b"abcZ")

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 12),
        st.sampled_from([8, 16, 32]),
        st.integers(0, 10_000),
    )
    def test_encode_lines_matches_per_line_encode(self, lines, line_size, seed):
        code = self._random_code(seed)
        data = bytes(random.Random(seed + 1).randbytes(lines * line_size))
        batch = code.encode_lines(data, line_size)
        assert batch is not None
        encoded_lines, line_bits = batch
        assert len(encoded_lines) == lines
        for index in range(lines):
            line = data[index * line_size : (index + 1) * line_size]
            expected_bytes, expected_bits = code.encode(line)
            assert encoded_lines[index] == expected_bytes
            assert int(line_bits[index]) == expected_bits

    @pytest.mark.parametrize("chunk_bytes", [1, 100, huffman.ENCODE_CHUNK_BYTES])
    def test_encode_lines_is_the_same_in_any_chunking(self, monkeypatch, chunk_bytes):
        # 1250 lines: one line, three lines, and 2.4 default chunks at a time.
        code = self._random_code(5)
        data = bytes(random.Random(6).randbytes(40_000))
        expected = [code.encode(data[start : start + 32]) for start in range(0, len(data), 32)]
        monkeypatch.setattr(huffman, "ENCODE_CHUNK_BYTES", chunk_bytes)
        encoded_lines, line_bits = code.encode_lines(data, 32)
        assert list(zip(encoded_lines, line_bits.tolist())) == expected

    def test_encode_lines_rejects_ragged_input(self):
        code = self._random_code(11)
        with pytest.raises(CompressionError):
            code.encode_lines(b"12345", 4)
        with pytest.raises(CompressionError):
            code.encode_lines(b"1234", 0)
