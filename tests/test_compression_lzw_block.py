"""Tests for the LZW (compress-style) codec and block-bounded compression."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompressionError
from repro.compression.block import (
    BYTE_ALIGNED,
    WORD_ALIGNED,
    BlockCompressor,
)
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.compression.lzw import (
    DEFAULT_MAX_BITS,
    HEADER_BYTES,
    MIN_BITS,
    lzw_compress,
    lzw_compressed_size,
    lzw_decompress,
)

from huffman_oracle import BitReader


#: SHA-256 of ``lzw_compress(text, 16)`` and ``lzw_compress(text, 9)``
#: for three suite programs' text segments.
LZW_SHA256 = {
    "eightq": [
        "e70c1a66acf1c96b22208479cc71aa1d07c0f10f8cc901945412adffb114a6ef",
        "2937f671d330449a84b1381778cbc17c04277ee41c757679195f6cef8e1607f4",
    ],
    "who": [
        "3aaab0aa2d81baa9d9714412d4a327b3f07e911262c4e32aee510a3c5f8d5b80",
        "526ebdb4fc53c6c6de8a43a008d1e5cdfbbea4b724207f092b6696944d55fff4",
    ],
    "matrix25a": [
        "623c5081f3e02bb5abb167d51778b1722c127dbb081aff199545cf6dfa552775",
        "60d458b453823306dfaf09b6bf088655bc8140611dde813abcd3f6872151645c",
    ],
}


class TestLZW:
    def test_round_trip_text(self):
        data = b"tobeornottobetobeornottobe" * 20
        assert lzw_decompress(lzw_compress(data)) == data

    def test_round_trip_binary(self):
        data = bytes(random.Random(7).randbytes(5000))
        assert lzw_decompress(lzw_compress(data)) == data

    def test_round_trip_repetitive_kwkwk_case(self):
        data = b"aaaaaaaaaaaaaaaaaaaaaaaa"
        assert lzw_decompress(lzw_compress(data)) == data

    def test_empty_input(self):
        blob = lzw_compress(b"")
        assert len(blob) == HEADER_BYTES
        assert lzw_decompress(blob) == b""

    def test_single_byte(self):
        assert lzw_decompress(lzw_compress(b"x")) == b"x"

    def test_compresses_repetitive_data(self):
        data = b"abcd" * 1000
        assert len(lzw_compress(data)) < len(data) // 4

    def test_random_data_does_not_explode(self):
        data = bytes(random.Random(8).randbytes(4096))
        # LZW on incompressible data costs at most ~ 2x in the 9-bit region.
        assert len(lzw_compress(data)) < len(data) * 2

    def test_header_charged(self):
        assert lzw_compress(b"a") != lzw_compress(b"a")[HEADER_BYTES:]

    def test_max_bits_validation(self):
        with pytest.raises(CompressionError):
            lzw_compress(b"abc", max_bits=5)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=3000), st.integers(min_value=9, max_value=16))
    def test_compressed_size_without_a_bitstream(self, data, max_bits):
        assert lzw_compressed_size(data, max_bits) == len(lzw_compress(data, max_bits))

    def test_compressed_size_across_width_growth_and_freeze(self):
        data = random.Random(7).randbytes(3000)  # fills a 9-bit dictionary
        for max_bits in (9, 10, DEFAULT_MAX_BITS):
            assert lzw_compressed_size(data, max_bits) == len(lzw_compress(data, max_bits))
        assert lzw_compressed_size(b"") == HEADER_BYTES
        with pytest.raises(CompressionError):
            lzw_compressed_size(b"abc", max_bits=8)

    def test_round_trip_beyond_table_freeze(self):
        # Force dictionary saturation at a small width to hit the frozen path.
        data = bytes(random.Random(9).randbytes(3000))
        blob = lzw_compress(data, max_bits=9)
        assert lzw_decompress(blob, max_bits=9) == data

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=2000))
    def test_property_round_trip(self, data):
        assert lzw_decompress(lzw_compress(data)) == data

    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(max_size=200),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=4000),
        st.sampled_from((9, 10, DEFAULT_MAX_BITS)),
    )
    def test_compressed_size_past_the_dictionary_freeze(
        self, prefix, seed, noise, max_bits
    ):
        # Random bytes add about one dictionary entry per byte, so a few
        # hundred of them fill a 9-bit dictionary and freeze it.
        data = prefix + random.Random(seed).randbytes(noise)
        assert lzw_compressed_size(data, max_bits) == len(lzw_compress(data, max_bits))

    @pytest.mark.parametrize("name", sorted(LZW_SHA256))
    def test_compressed_bytes_are_pinned(self, name):
        from repro.workloads.suite import load

        text = load(name).text
        assert [
            hashlib.sha256(lzw_compress(text, max_bits)).hexdigest()
            for max_bits in (DEFAULT_MAX_BITS, 9)
        ] == LZW_SHA256[name]


def _reference_lzw_decompress(blob: bytes, max_bits: int = DEFAULT_MAX_BITS) -> bytes:
    """The bit-serial decoder ``lzw_decompress`` replaced: the oracle.

    Every code goes through :class:`BitReader` one bit at a time.  The
    only change from the original is the typed error for a first code
    outside the initial dictionary.
    """
    payload = blob[HEADER_BYTES:]
    if not payload:
        return b""

    table: dict[int, bytes] = {value: bytes([value]) for value in range(256)}
    next_code = 256
    width = MIN_BITS
    limit = 1 << max_bits
    reader = BitReader(payload)

    code = reader.read(width)
    if code not in table:
        raise CompressionError(f"corrupt LZW stream: code {code}")
    previous = table[code]
    output = bytearray(previous)
    while reader.remaining >= width:
        if next_code < limit:
            pending = next_code
            next_code += 1
            if next_code > (1 << width) and width < max_bits:
                width += 1
                if reader.remaining < width:
                    break
        else:
            pending = None
        code = reader.read(width)
        if code in table:
            entry = table[code]
        elif code == pending:
            entry = previous + previous[:1]
        else:
            raise CompressionError(f"corrupt LZW stream: code {code}")
        if pending is not None:
            table[pending] = previous + entry[:1]
        output.extend(entry)
        previous = entry
    return bytes(output)


def _outcome(decode, blob: bytes, max_bits: int):
    """Output bytes, or the exception's type and message."""
    try:
        return decode(blob, max_bits)
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        return type(error), str(error)


def _assert_same_decode(blob: bytes, max_bits: int = DEFAULT_MAX_BITS) -> None:
    assert _outcome(lzw_decompress, blob, max_bits) == _outcome(
        _reference_lzw_decompress, blob, max_bits
    )


def _break_payload_bits(max_bits: int) -> int | None:
    """Payload length that ends exactly where the code width grows.

    Walks the decoder's width schedule: before the code that would be
    read at width ``w + 1``, the decoder has read the first code plus
    every loop code so far.  A payload whose bits run out with exactly
    ``w`` left at that point takes the ``break`` branch.  Returns the
    first such length that is a whole number of bytes, if any.
    """
    consumed = MIN_BITS  # the first code
    for width in range(MIN_BITS, max_bits):
        # Loop codes read at ``width``: every pending code that does not
        # yet push next_code past 1 << width.
        first_pending = 256 if width == MIN_BITS else 1 << (width - 1)
        consumed += ((1 << width) - first_pending) * width
        if (consumed + width) % 8 == 0:
            return consumed + width
    return None


class TestLZWFastDecodeMatchesBitSerial:
    """``lzw_decompress``'s byte-window reader against the bit-serial oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=3000), st.integers(min_value=9, max_value=16))
    def test_random_data_any_max_bits(self, data, max_bits):
        blob = lzw_compress(data, max_bits=max_bits)
        _assert_same_decode(blob, max_bits)
        assert lzw_decompress(blob, max_bits) == data

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(600, 3000))
    def test_streams_that_fill_the_dictionary(self, seed, size):
        data = random.Random(seed).randbytes(size)
        blob = lzw_compress(data, max_bits=9)
        # More codes than the 256 a 9-bit dictionary can add: it froze.
        assert (len(blob) - HEADER_BYTES) * 8 // 9 > 257
        _assert_same_decode(blob, 9)
        assert lzw_decompress(blob, max_bits=9) == data

    def test_stream_ending_where_the_width_grows(self):
        bits = _break_payload_bits(DEFAULT_MAX_BITS)
        assert bits is not None
        # Code 0 is always a valid literal, so an all-zero payload walks
        # the full width schedule and stops at the break.
        blob = bytes(HEADER_BYTES) + bytes(bits // 8)
        decoded = lzw_decompress(blob)
        assert decoded == _reference_lzw_decompress(blob)
        # One output byte per code: the first code plus one per pending
        # code 256 .. 2**15 - 1.  Reading past the break would add one.
        assert decoded == bytes(1 + (1 << (DEFAULT_MAX_BITS - 1)) - 256)

    @settings(max_examples=80, deadline=None)
    @given(st.binary(min_size=1, max_size=1500), st.integers(min_value=0), st.integers(9, 16))
    def test_bit_flipped_streams(self, data, where, max_bits):
        blob = bytearray(lzw_compress(data, max_bits=max_bits))
        bit = where % ((len(blob) - HEADER_BYTES) * 8)
        blob[HEADER_BYTES + bit // 8] ^= 0x80 >> (bit % 8)
        _assert_same_decode(bytes(blob), max_bits)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=1500), st.integers(min_value=0), st.integers(9, 16))
    def test_truncated_streams(self, data, where, max_bits):
        blob = lzw_compress(data, max_bits=max_bits)
        _assert_same_decode(blob[: where % (len(blob) + 1)], max_bits)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=600), st.integers(9, 16))
    def test_random_payloads(self, payload, max_bits):
        _assert_same_decode(bytes(HEADER_BYTES) + payload, max_bits)

    def test_payloads_shorter_than_one_code(self):
        for payload in [b""] + [bytes([value]) for value in range(256)]:
            _assert_same_decode(bytes(HEADER_BYTES) + payload)
        with pytest.raises(CompressionError, match="bit stream exhausted"):
            lzw_decompress(bytes(HEADER_BYTES) + b"\x00")

    def test_corrupt_first_code_is_a_typed_error(self):
        blob = bytearray(lzw_compress(b"hello world" * 10))
        blob[HEADER_BYTES] ^= 0x80  # first code 104 ('h') becomes 360
        with pytest.raises(CompressionError, match="corrupt LZW stream: code 360"):
            lzw_decompress(bytes(blob))
        _assert_same_decode(bytes(blob))

    def test_max_bits_validation(self):
        with pytest.raises(CompressionError):
            lzw_decompress(lzw_compress(b"abc"), max_bits=25)


def _code_for(data: bytes, max_length: int = 16) -> HuffmanCode:
    return HuffmanCode.from_frequencies(
        byte_histogram(data), max_length=max_length, cover_all_symbols=True
    )


class TestBlockCompressor:
    def test_round_trip_program(self):
        data = bytes(random.Random(10).choices(range(32), k=4096))
        compressor = BlockCompressor(_code_for(data))
        blocks = compressor.compress_program(data)
        assert compressor.decompress_program(blocks) == data

    def test_tail_padding(self):
        data = b"\x01" * 40  # 1.25 lines
        compressor = BlockCompressor(_code_for(data))
        blocks = compressor.compress_program(data)
        assert len(blocks) == 2
        restored = compressor.decompress_program(blocks)
        assert restored[:40] == data
        assert restored[40:] == bytes(24)

    def test_compressible_line_shrinks(self):
        data = b"\x00" * 32
        compressor = BlockCompressor(_code_for(b"\x00" * 100 + bytes(range(256))))
        block = compressor.compress_line(data)
        assert block.is_compressed
        assert block.stored_size < 32
        assert 1 <= block.stored_size <= 31

    def test_incompressible_line_bypassed(self):
        line = bytes(range(32))
        # A code trained on different data gives these bytes long codes.
        histogram = [0] * 256
        histogram[255] = 10_000
        code = HuffmanCode.from_frequencies(histogram, max_length=16, cover_all_symbols=True)
        block = BlockCompressor(code).compress_line(line)
        assert not block.is_compressed
        assert block.data == line
        assert block.stored_size == 32

    def test_no_block_ever_grows(self):
        rng = random.Random(11)
        code = _code_for(bytes(rng.randbytes(512)))
        compressor = BlockCompressor(code)
        for _ in range(50):
            line = bytes(rng.randbytes(32))
            assert compressor.compress_line(line).stored_size <= 32

    def test_word_alignment_pads_to_multiple_of_four(self):
        data = b"\x00" * 320
        code = _code_for(data + bytes(range(256)))
        blocks = BlockCompressor(code, alignment=WORD_ALIGNED).compress_program(data)
        assert all(block.stored_size % 4 == 0 for block in blocks)

    def test_byte_alignment_never_larger_than_word_alignment(self):
        data = bytes(random.Random(12).choices(range(64), k=2048))
        code = _code_for(data)
        byte_blocks = BlockCompressor(code, alignment=BYTE_ALIGNED).compress_program(data)
        word_blocks = BlockCompressor(code, alignment=WORD_ALIGNED).compress_program(data)
        byte_size = sum(block.stored_size for block in byte_blocks)
        word_size = sum(block.stored_size for block in word_blocks)
        assert byte_size <= word_size

    def test_symbol_bits_present_only_when_compressed(self):
        data = b"\x00" * 32
        code = _code_for(b"\x00" * 100)
        block = BlockCompressor(code).compress_line(data)
        assert block.symbol_bits is not None
        assert len(block.symbol_bits) == 32
        assert sum(block.symbol_bits) == block.bit_length

    def test_wrong_line_size_rejected(self):
        code = _code_for(b"\x00\x01")
        with pytest.raises(CompressionError):
            BlockCompressor(code).compress_line(b"\x00" * 16)

    def test_bad_line_size_config_rejected(self):
        code = _code_for(b"\x00\x01")
        with pytest.raises(CompressionError):
            BlockCompressor(code, line_size=33)

    def test_bad_alignment_rejected(self):
        code = _code_for(b"\x00\x01")
        with pytest.raises(CompressionError):
            BlockCompressor(code, alignment=2)

    def test_compressed_size_accounting(self):
        data = b"\x00" * 128
        code = _code_for(b"\x00" * 100)
        compressor = BlockCompressor(code)
        blocks = compressor.compress_program(data)
        assert int(compressor.stored_sizes(data).sum()) == sum(b.stored_size for b in blocks)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=512))
    def test_property_round_trip_any_data(self, data):
        code = _code_for(data)
        compressor = BlockCompressor(code)
        blocks = compressor.compress_program(data)
        restored = compressor.decompress_program(blocks)
        assert restored[: len(data)] == data
        assert all(block.stored_size <= 32 for block in blocks)
