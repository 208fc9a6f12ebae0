"""Tests for the multiple-preselected-code compression scheme."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CompressionError
from repro.compression.histogram import byte_histogram, merge_histograms
from repro.compression.huffman import HuffmanCode
from repro.compression.multicode import (
    MultiCodeBlock,
    MultiCodeCompressor,
    train_code_set,
)
from repro.workloads.suite import load_figure5_corpus


def code_for(data: bytes) -> HuffmanCode:
    return HuffmanCode.from_frequencies(
        byte_histogram(data), max_length=16, cover_all_symbols=True
    )


@pytest.fixture(scope="module")
def bimodal_corpus():
    """Two populations of lines with very different byte statistics."""
    rng = random.Random(40)
    zeros_like = [bytes(rng.choices(range(8), k=32)) for _ in range(64)]
    highs_like = [bytes(rng.choices(range(200, 256), k=32)) for _ in range(64)]
    return zeros_like, highs_like


class TestMultiCodeCompressor:
    def test_picks_the_better_code_per_line(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        code_low = code_for(b"".join(zeros_like))
        code_high = code_for(b"".join(highs_like))
        compressor = MultiCodeCompressor([code_low, code_high])
        low_block = compressor.compress_line(zeros_like[0])
        high_block = compressor.compress_line(highs_like[0])
        assert low_block.code_index == 0
        assert high_block.code_index == 1

    def test_identity_fallback_for_incompressible_line(self):
        histogram = [0] * 256
        histogram[0] = 1_000_000
        code = HuffmanCode.from_frequencies(histogram, max_length=16, cover_all_symbols=True)
        compressor = MultiCodeCompressor([code])
        block = compressor.compress_line(bytes(range(200, 232)))
        assert block.code_index is None
        assert block.stored_size == 32

    def test_round_trip(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        codes = [code_for(b"".join(zeros_like)), code_for(b"".join(highs_like))]
        compressor = MultiCodeCompressor(codes)
        blocks = compressor.compress_program(text)
        restored = b"".join(compressor.decompress_block(block) for block in blocks)
        assert restored[: len(text)] == text

    def test_two_codes_beat_one_on_bimodal_data(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        merged = code_for(text)
        single = MultiCodeCompressor([merged])
        double = MultiCodeCompressor(
            [code_for(b"".join(zeros_like)), code_for(b"".join(highs_like))]
        )
        single_size = single.compressed_size(text)
        double_size = double.compressed_size(text)
        for compressor, size in ((single, single_size), (double, double_size)):
            blocks = compressor.compress_program(text)
            payload = sum(block.stored_size for block in blocks)
            assert size == payload + (len(blocks) * compressor.tag_bits + 7) // 8
        assert double_size < single_size

    def test_tag_bits_grow_with_code_count(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        code = code_for(b"".join(zeros_like))
        assert MultiCodeCompressor([code]).tag_bits == 1
        assert MultiCodeCompressor([code] * 3).tag_bits == 2
        assert MultiCodeCompressor([code] * 7).tag_bits == 3

    def test_compressed_size_includes_tags(self, bimodal_corpus):
        zeros_like, _ = bimodal_corpus
        text = b"".join(zeros_like)
        compressor = MultiCodeCompressor([code_for(text)])
        blocks = compressor.compress_program(text)
        payload = sum(block.stored_size for block in blocks)
        assert compressor.compressed_size(text) == payload + (len(blocks) + 7) // 8

    def test_code_usage_accounting(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        compressor = MultiCodeCompressor(
            [code_for(b"".join(zeros_like)), code_for(b"".join(highs_like))]
        )
        usage = compressor.code_usage(compressor.compress_program(text))
        assert usage.get(0, 0) >= 60 and usage.get(1, 0) >= 60

    def test_empty_code_list_rejected(self):
        with pytest.raises(CompressionError):
            MultiCodeCompressor([])

    @pytest.mark.parametrize("line_size", [0, 3, -32])
    def test_line_size_must_be_a_power_of_two(self, line_size):
        code = code_for(b"\0\1")
        message = f"^line size {line_size} is not a power of two$"
        with pytest.raises(CompressionError, match=message):
            MultiCodeCompressor([code], line_size=line_size)
        with pytest.raises(CompressionError, match=message):
            train_code_set([b"\0" * 64], line_size=line_size)

    def test_wrong_line_size_rejected(self, bimodal_corpus):
        zeros_like, _ = bimodal_corpus
        compressor = MultiCodeCompressor([code_for(zeros_like[0])])
        with pytest.raises(CompressionError):
            compressor.compress_line(b"\x00" * 16)


class TestTrainCodeSet:
    def test_trains_requested_count(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        codes = train_code_set([b"".join(zeros_like), b"".join(highs_like)], code_count=2)
        assert len(codes) == 2
        assert all(code.max_length <= 16 for code in codes)

    def test_trained_pair_separates_populations(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        codes = train_code_set([text], code_count=2, refinement_rounds=4)
        compressor = MultiCodeCompressor(codes)
        usage = compressor.code_usage(compressor.compress_program(text))
        # Both trained codes should win a meaningful share of lines.
        shares = [usage.get(index, 0) for index in range(2)]
        assert min(shares) >= 16

    def test_more_codes_never_compress_worse(self, bimodal_corpus):
        zeros_like, highs_like = bimodal_corpus
        text = b"".join(zeros_like + highs_like)
        sizes = []
        for count in (1, 2, 4):
            codes = train_code_set([text], code_count=count)
            compressor = MultiCodeCompressor(codes)
            payload = sum(
                block.stored_size for block in compressor.compress_program(text)
            )
            sizes.append(payload)
        assert sizes[1] <= sizes[0]
        assert sizes[2] <= sizes[1] + 32  # refinement is greedy, allow noise

    def test_invalid_inputs(self):
        with pytest.raises(CompressionError):
            train_code_set([b"\x00" * 64], code_count=0)
        with pytest.raises(CompressionError):
            train_code_set([], code_count=1)


# ----------------------------------------------------------------------
# Differential tests: the matrix form against the per-line reference
# ----------------------------------------------------------------------


def reference_train_code_set(
    corpus: list[bytes],
    code_count: int = 2,
    max_length: int = 16,
    line_size: int = 32,
    refinement_rounds: int = 3,
) -> list[HuffmanCode]:
    """The per-line Lloyd loop ``train_code_set`` must reproduce exactly."""
    if code_count < 1:
        raise CompressionError("code_count must be at least 1")
    lines: list[bytes] = []
    for text in corpus:
        remainder = len(text) % line_size
        if remainder:
            text = text + bytes(line_size - remainder)
        lines.extend(text[offset : offset + line_size] for offset in range(0, len(text), line_size))
    if not lines:
        raise CompressionError("empty corpus")

    def build(selected: list[bytes]) -> HuffmanCode:
        histogram = merge_histograms([byte_histogram(line) for line in selected] or [byte_histogram(b"\0")])
        return HuffmanCode.from_frequencies(histogram, max_length=max_length, cover_all_symbols=True)

    codes = [build(lines)]
    while len(codes) < code_count:
        worst = sorted(
            lines,
            key=lambda line: min(code.encoded_bit_length(line) for code in codes),
            reverse=True,
        )[: max(1, len(lines) // (len(codes) + 1))]
        codes.append(build(worst))
    for _ in range(refinement_rounds):
        assignments: list[list[bytes]] = [[] for _ in codes]
        for line in lines:
            best = min(range(len(codes)), key=lambda i: codes[i].encoded_bit_length(line))
            assignments[best].append(line)
        codes = [
            build(assigned) if assigned else code
            for code, assigned in zip(codes, assignments)
        ]
    return codes


def reference_compress_line(compressor: MultiCodeCompressor, line: bytes) -> MultiCodeBlock:
    """Per-line choice: first code with the fewest stored bytes, else identity."""
    best: MultiCodeBlock | None = None
    for index, code in enumerate(compressor.codes):
        try:
            bits = code.encoded_bit_length(line)
        except CompressionError:
            continue  # this code cannot express some byte in the line
        stored = (bits + 7) // 8
        if stored < compressor.line_size and (best is None or stored < best.stored_size):
            encoded, bit_length = code.encode(line)
            best = MultiCodeBlock(code_index=index, data=encoded, bit_length=bit_length)
    if best is None:
        return MultiCodeBlock(code_index=None, data=bytes(line), bit_length=8 * compressor.line_size)
    return best


def reference_compress_program(compressor: MultiCodeCompressor, text: bytes) -> list[MultiCodeBlock]:
    size = compressor.line_size
    text = text + bytes(-len(text) % size)
    return [
        reference_compress_line(compressor, text[offset : offset + size])
        for offset in range(0, len(text), size)
    ]


def payload_plus_tags(compressor: MultiCodeCompressor, text: bytes) -> int:
    """Stored bytes of the blocks ``compress_program`` builds, plus their tags."""
    blocks = compressor.compress_program(text)
    payload = sum(block.stored_size for block in blocks)
    return payload + (len(blocks) * compressor.tag_bits + 7) // 8


def train_both(corpus: list[bytes], **kwargs):
    """Both trainers' code lengths, or the error both raise."""
    results = []
    for trainer in (train_code_set, reference_train_code_set):
        try:
            results.append([code.lengths for code in trainer(corpus, **kwargs)])
        except CompressionError as error:
            results.append(str(error))
    return results


@st.composite
def corpora(draw, line_size: int):
    """Texts cut from a few repeated lines over a narrow alphabet.

    Repeated lines tie in cost, which exercises both tie rules; tails
    shorter than a line exercise the zero padding.
    """
    symbols = draw(st.lists(st.integers(0, 255), min_size=1, max_size=6, unique=True))
    line = st.lists(st.sampled_from(symbols), min_size=line_size, max_size=line_size).map(bytes)
    pool = draw(st.lists(line, min_size=1, max_size=5))
    text = st.tuples(
        st.lists(st.sampled_from(pool), max_size=12),
        st.lists(st.sampled_from(symbols), max_size=line_size - 1).map(bytes),
    ).map(lambda parts: b"".join(parts[0]) + parts[1])
    return draw(st.lists(text, max_size=3))


def _code_from(data: bytes, max_length: int | None) -> HuffmanCode:
    """A code for ``data``'s bytes only; other byte values get no word."""
    return HuffmanCode.from_frequencies(
        byte_histogram(data or b"\0"), max_length=max_length, cover_all_symbols=False
    )


#: Lengths 1, 2, ..., 69, 69 (Kraft sum 1): symbol 0 codes in one bit and
#: the longest words exceed 64 bits, so ``encode_lines`` declines the code.
DEEP_CODE = HuffmanCode.from_lengths(list(range(1, 70)) + [69] + [0] * 186)


class TestMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        line_size=st.sampled_from([4, 8, 32]),
        code_count=st.integers(1, 4),
        refinement_rounds=st.integers(0, 2),
    )
    def test_training(self, data, line_size, code_count, refinement_rounds):
        new, old = train_both(
            data.draw(corpora(line_size)),
            code_count=code_count,
            line_size=line_size,
            refinement_rounds=refinement_rounds,
        )
        assert new == old

    def test_training_refuses_an_empty_text(self):
        new, old = train_both([b""], code_count=2, line_size=8)
        assert new == old == "empty corpus"

    def test_training_with_more_codes_than_lines(self):
        corpus = [bytes([1, 1, 2, 3] * 4), bytes([9] * 5)]  # two lines of 16 bytes
        new, old = train_both(corpus, code_count=5, line_size=16)
        assert new == old and len(new) == 5

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        line_size=st.sampled_from([4, 8, 32]),
        max_length=st.sampled_from([16, None]),
    )
    def test_compression(self, data, line_size, max_length):
        # Codes trained on slices of the text, without cover_all_symbols, so
        # a code may lack a word for some byte of a line and be skipped.
        texts = data.draw(corpora(line_size)) or [b""]
        samples = data.draw(st.lists(st.sampled_from(texts), min_size=1, max_size=3))
        codes = [_code_from(sample[: len(sample) // 2 + 1], max_length) for sample in samples]
        compressor = MultiCodeCompressor(codes, line_size=line_size)
        for text in texts:
            blocks = compressor.compress_program(text)
            assert blocks == reference_compress_program(compressor, text)
            if blocks:
                assert compressor.compress_line(text[:line_size].ljust(line_size, b"\0")) == blocks[0]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), line_size=st.sampled_from([4, 8, 32]))
    def test_compressed_size_is_the_block_payload_plus_tags(self, data, line_size):
        # Codes trained on half a text lack words for some bytes, so some
        # lines fall back to the identity for want of a code.
        texts = data.draw(corpora(line_size)) or [b""]
        samples = data.draw(st.lists(st.sampled_from(texts), min_size=1, max_size=4))
        codes = [_code_from(sample[: len(sample) // 2 + 1], 16) for sample in samples]
        compressor = MultiCodeCompressor(codes, line_size=line_size)
        for text in texts:
            assert compressor.compressed_size(text) == payload_plus_tags(compressor, text)

    def test_compressed_size_counts_uncodable_lines_as_identity(self):
        compressor = MultiCodeCompressor([_code_from(b"\1\2", 16)], line_size=8)
        text = bytes([1, 2] * 4) + bytes([1, 2, 3, 1, 2, 1, 2, 1])  # 0x03 has no word
        blocks = compressor.compress_program(text)
        assert [block.code_index for block in blocks] == [0, None]
        assert compressor.compressed_size(text) == blocks[0].stored_size + 8 + 1

    def test_compressed_size_caps_a_costly_line_at_the_identity(self):
        # 0x3c has a 61-bit word: eight of them would take 61 bytes.
        compressor = MultiCodeCompressor([DEEP_CODE], line_size=8)
        text = bytes(8) + bytes([0x3C] * 8)
        blocks = compressor.compress_program(text)
        assert [block.code_index for block in blocks] == [0, None]
        assert compressor.compressed_size(text) == blocks[0].stored_size + 8 + 1

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from([0, 0, 0, 1, 2, 200]), max_size=100).map(bytes))
    @example(bytes(8) + b"\1\2" * 4 + b"\xc8")  # one line for each code and the identity
    def test_compression_with_words_over_64_bits(self, text):
        assert DEEP_CODE.max_length > 64
        assert DEEP_CODE.encode_lines(bytes(8), 8) is None  # forces per-line encode
        compressor = MultiCodeCompressor([_code_from(b"\1\2", 16), DEEP_CODE], line_size=8)
        blocks = compressor.compress_program(text)
        assert blocks == reference_compress_program(compressor, text)
        restored = b"".join(compressor.decompress_block(block) for block in blocks)
        assert restored[: len(text)] == text
        assert compressor.compressed_size(text) == payload_plus_tags(compressor, text)

    def test_empty_text_compresses_to_no_blocks(self):
        compressor = MultiCodeCompressor([code_for(b"\0\1")])
        assert compressor.compress_program(b"") == [] == reference_compress_program(compressor, b"")

    @pytest.mark.parametrize("code_count", [1, 2, 4])
    def test_figure5_corpus_slice(self, code_count):
        # 7 lines from the middle of each program, the last one ragged; on
        # the whole corpus the reference needs seconds per code count.
        corpus = [text[len(text) // 2 :][:200] for text in load_figure5_corpus().values()]
        new = train_code_set(corpus, code_count=code_count, refinement_rounds=2)
        old = reference_train_code_set(corpus, code_count=code_count, refinement_rounds=2)
        assert [code.lengths for code in new] == [code.lengths for code in old]
        compressor = MultiCodeCompressor(new)
        for text in corpus:
            assert compressor.compress_program(text) == reference_compress_program(compressor, text)
