"""Size-only compression accounting against the block path that encodes.

``BlockCompressor.stored_sizes`` reads only code lengths; every line size
it reports must equal the stored size of the block ``compress_program``
builds (vectorized or scalar fallback) and the block ``compress_line``
builds, and an uncodable byte must fail the same way.  The experiments
that report only sizes must not build a bitstream at all.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.compression.bitstream import BitWriter
from repro.compression.block import BYTE_ALIGNED, WORD_ALIGNED, BlockCompressor
from repro.compression.huffman import HuffmanCode
from repro.compression.multicode import MultiCodeCompressor
from repro.core.standard import standard_code
from repro.errors import CompressionError
from repro.experiments.cross_isa import run_cross_isa
from repro.experiments.extensions import run_multicode
from repro.experiments.figure5 import run_figure5
from repro.workloads.suite import load_figure5_corpus

#: Lengths 1, 2, ..., 69, 69 (Kraft sum 1) for symbols 0-69, none for the
#: rest: the longest words exceed 64 bits, so ``compress_program`` takes
#: its scalar per-line fallback.
DEEP_CODE = HuffmanCode.from_lengths(list(range(1, 70)) + [69] + [0] * 186)


def outcome(sizes):
    """``sizes()``, or the type and message of the ``CompressionError`` it raises."""
    try:
        return sizes()
    except CompressionError as error:
        return type(error), str(error)


def three_ways(compressor: BlockCompressor, text: bytes) -> tuple:
    """Per-line stored sizes from the kernel, the batch path and ``compress_line``."""
    size = compressor.line_size
    padded = text + bytes(-len(text) % size)
    return (
        outcome(lambda: compressor.stored_sizes(text).tolist()),
        outcome(lambda: [block.stored_size for block in compressor.compress_program(text)]),
        outcome(
            lambda: [
                compressor.compress_line(padded[offset : offset + size]).stored_size
                for offset in range(0, len(padded), size)
            ]
        ),
    )


@st.composite
def codes_and_texts(draw):
    """A code (some byte values without a word) and a text mostly over its alphabet.

    One code in four is ``DEEP_CODE``; the rest are trained on random
    weights over a random alphabet, bounded or not.  A stray byte, which
    may have no word, lands in the text now and then, and the tail is
    often a partial line.
    """
    if draw(st.integers(0, 3)) == 0:
        code, alphabet = DEEP_CODE, list(range(70))
    else:
        alphabet = draw(st.lists(st.integers(0, 255), min_size=1, max_size=40, unique=True))
        histogram = [0] * 256
        for symbol in alphabet:
            histogram[symbol] = draw(st.integers(1, 1000))
        code = HuffmanCode.from_frequencies(
            histogram,
            max_length=draw(st.sampled_from([None, 12, 16])),
            cover_all_symbols=draw(st.booleans()),
        )
    text = draw(st.lists(st.sampled_from(alphabet), max_size=300))
    if text and draw(st.integers(0, 4)) == 0:
        text.insert(draw(st.integers(0, len(text))), draw(st.integers(0, 255)))
    return code, bytes(text)


class TestStoredSizes:
    @settings(max_examples=80, deadline=None)
    @given(
        code_and_text=codes_and_texts(),
        line_size=st.sampled_from([4, 8, 16, 32, 64]),
        alignment=st.sampled_from([BYTE_ALIGNED, WORD_ALIGNED]),
    )
    @example(code_and_text=(DEEP_CODE, bytes([0, 1, 69, 3] * 5)), line_size=8, alignment=WORD_ALIGNED)
    @example(code_and_text=(DEEP_CODE, bytes([5, 200, 0, 7])), line_size=4, alignment=BYTE_ALIGNED)
    def test_kernel_matches_both_block_paths(self, code_and_text, line_size, alignment):
        code, text = code_and_text
        compressor = BlockCompressor(code, line_size=line_size, alignment=alignment)
        kernel, batch, per_line = three_ways(compressor, text)
        assert kernel == batch == per_line

    def test_deep_code_takes_the_scalar_fallback(self):
        assert DEEP_CODE.max_length > 64
        assert DEEP_CODE.encode_lines(bytes(8), 8) is None
        # Symbol 69 costs 69 bits: the second line bypasses at 8 bytes.
        compressor = BlockCompressor(DEEP_CODE, line_size=8)
        text = bytes(8) + bytes([69]) + bytes(7)
        assert three_ways(compressor, text) == ([1, 8],) * 3

    @pytest.mark.parametrize("code", [HuffmanCode.from_lengths([8] * 256), DEEP_CODE])
    def test_empty_text_has_no_lines(self, code):
        assert three_ways(BlockCompressor(code), b"") == ([],) * 3

    def test_uncodable_byte_raises_the_first_in_text_order(self):
        histogram = [0] * 256
        histogram[1] = histogram[2] = 1
        compressor = BlockCompressor(HuffmanCode.from_frequencies(histogram), line_size=4)
        text = bytes([1, 2, 1, 2, 1, 0x33, 0x44, 2])
        expected = (CompressionError, "symbol 0x33 has no code")
        assert three_ways(compressor, text) == (expected,) * 3
        # The zero padding of a partial tail is text too.
        padding = (CompressionError, "symbol 0x00 has no code")
        assert three_ways(compressor, bytes([1, 2, 1, 2, 1])) == (padding,) * 3

    @pytest.mark.parametrize("alignment", [BYTE_ALIGNED, WORD_ALIGNED])
    def test_whole_corpus_with_the_preselected_code(self, alignment):
        compressor = BlockCompressor(standard_code(), alignment=alignment)
        for name, text in load_figure5_corpus().items():
            sizes = [block.stored_size for block in compressor.compress_program(text)]
            assert compressor.stored_sizes(text).tolist() == sizes, name


class TestSizeOnlyExperimentsEncodeNothing:
    def test_figure5_cross_isa_and_multicode_build_no_bitstream(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a size-only path built a bitstream")

        for owner, name in (
            (HuffmanCode, "encode_lines"),
            (HuffmanCode, "encode"),
            (BlockCompressor, "compress_program"),
            (MultiCodeCompressor, "compress_program"),
            (BitWriter, "write"),
        ):
            monkeypatch.setattr(owner, name, refuse)
        programs = ("eightq", "yacc")
        assert len(run_figure5(programs).rows) == 2
        assert len(run_cross_isa(programs).rows) == 2
        corpus = load_figure5_corpus()
        assert len(run_multicode([corpus[name] for name in programs])) == 3
