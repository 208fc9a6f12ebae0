"""Equivalence suites for the vectorized memory-system timeline.

Every array kernel in this PR keeps its scalar predecessor as a golden
reference; these tests pin them together:

* stack-distance miss curves vs the stateful :class:`repro.ccrp.clb.CLB`
  (all capacities, dense and merge-count paths, chunk seams);
* :meth:`DecoderModel.refill_cycles_table` vs the per-block
  :meth:`DecoderModel.refill_cycles` loop (three memories, both fidelity
  levels, swept decode rates, widened buses);
* the exact-integer detailed recurrence vs the old float-accumulation
  formula it replaced;
* :meth:`HuffmanCode.decode_lines` vs :meth:`HuffmanCode.decode_fast`
  (byte identity, error-message identity, bypass, truncation, the
  ``errors="none"`` protocol, and the >16-bit-code scalar fallback);
* the study/cache wiring on real programs (the Tables 9-10 ones
  included): ``clb_miss_count(s)`` vs the stateful CLB, and the
  :class:`RefillEngine` tables vs the per-block loops;
* the batch refill path of :class:`ExpandingInstructionCache` vs
  :meth:`HuffmanCode.decode_fast` on every fetch, and the
  single-serialization guarantee.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ccrp.stackdist as stackdist
from repro.ccrp.clb import CLB
from repro.ccrp.compressor import ProgramCompressor
from repro.ccrp.decoder import DecoderModel
from repro.ccrp.expanding_cache import ExpandingInstructionCache
from repro.ccrp.image import CompressedImage
from repro.ccrp.refill import RefillEngine
from repro.ccrp.stackdist import lru_miss_count, lru_miss_curve, stack_distances
from repro.compression.block import BlockCompressor, build_block_arrays
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.errors import CompressionError
from repro.memsys import BURST_EPROM, EPROM, SC_DRAM, MemoryModel


def make_code(data: bytes) -> HuffmanCode:
    return HuffmanCode.from_frequencies(
        byte_histogram(data), max_length=16, cover_all_symbols=True
    )


def sample_text(lines: int = 40, seed: int = 30) -> bytes:
    rng = random.Random(seed)
    # Skewed byte distribution, like machine code.
    return bytes(rng.choices(range(256), weights=[400] + [4] * 63 + [1] * 192, k=lines * 32))


def reference_tables(image, memory, decoder) -> tuple[list[int], list[int]]:
    """Per-block reference loops for the refill-cycle and fetched-byte tables."""
    cycles = [decoder.refill_cycles(block, memory) for block in image.blocks]
    bus = memory.bus_bytes
    fetched = [bus * memory.beats_for_bytes(block.stored_size) for block in image.blocks]
    return cycles, fetched


def strip_symbol_bits(image, indices) -> CompressedImage:
    """Hand-built copy of ``image`` whose listed blocks lack symbol lengths."""
    blocks = tuple(
        dataclasses.replace(block, symbol_bits=None) if index in indices else block
        for index, block in enumerate(image.blocks)
    )
    return dataclasses.replace(image, blocks=blocks)


def all_none_lines(image) -> tuple[None, ...]:
    """Stand-in for :meth:`CompressedImage.expanded_lines` with every slot
    empty, which sends each compressed refill to ``decode_fast``."""
    return (None,) * len(image.blocks)


def reference_distances(probes: list[int]) -> list[int]:
    """Textbook LRU stack walk (0 = cold)."""
    stack: list[int] = []
    out = []
    for probe in probes:
        if probe in stack:
            depth = stack.index(probe) + 1
            stack.remove(probe)
        else:
            depth = 0
        stack.insert(0, probe)
        out.append(depth)
    return out


# ----------------------------------------------------------------------
# Stack distances vs the stateful CLB
# ----------------------------------------------------------------------


class TestStackDistances:
    @given(
        probes=st.lists(st.integers(min_value=0, max_value=30), max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_distances_match_reference_walk(self, probes):
        got = stack_distances(np.array(probes, dtype=np.int64))
        assert got.tolist() == reference_distances(probes)

    @given(
        probes=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_values_match_reference_walk(self, probes):
        got = stack_distances(np.array(probes, dtype=np.int64))
        assert got.tolist() == reference_distances(probes)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        alphabet=st.sampled_from([1, 2, 3, 40, 127, 128, 129, 200]),
        length=st.integers(min_value=0, max_value=600),
        capacity=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_curve_matches_stateful_clb(self, seed, alphabet, length, capacity):
        rng = random.Random(seed)
        probes = [rng.randrange(alphabet) for _ in range(length)]
        curve = lru_miss_curve(np.array(probes, dtype=np.int64))
        reference = CLB(entries=capacity).simulate(probes)
        assert lru_miss_count(curve, capacity) == reference

    def test_merge_count_path_matches_clb(self):
        # > _DENSE_ALPHABET_LIMIT distinct values forces the merge path.
        rng = random.Random(5)
        probes = [rng.randrange(400) for _ in range(5000)]
        curve = lru_miss_curve(np.array(probes, dtype=np.int64))
        for capacity in (1, 4, 16, 64, 300, 500):
            assert lru_miss_count(curve, capacity) == CLB(entries=capacity).simulate(probes)

    def test_chunk_seams_preserve_distances(self, monkeypatch):
        monkeypatch.setattr(stackdist, "_DENSE_CHUNK_CELLS", 64)
        monkeypatch.setattr(stackdist, "_SCALAR_LIMIT", 0)
        rng = random.Random(11)
        probes = [rng.randrange(7) for _ in range(1000)]
        got = stack_distances(np.array(probes, dtype=np.int64))
        assert got.tolist() == reference_distances(probes)

    def test_empty_and_degenerate_streams(self):
        assert stack_distances(np.array([], dtype=np.int64)).size == 0
        assert lru_miss_curve(np.array([], dtype=np.int64)).tolist() == [0]
        # A lone cold miss persists at every capacity.
        assert lru_miss_curve(np.array([9], dtype=np.int64)).tolist() == [1]
        assert lru_miss_count(lru_miss_curve(np.array([9], dtype=np.int64)), 64) == 1

    def test_two_dimensional_probes_rejected(self):
        with pytest.raises(ValueError):
            stack_distances(np.zeros((2, 2), dtype=np.int64))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            lru_miss_count(np.array([3, 1]), -1)


class TestRandomPolicyEviction:
    def test_random_victim_stream_matches_materialised_choice(self):
        """The islice walk must consume the RNG exactly like the old
        ``random.choice(list(lru))`` implementation."""

        class OldCLB(CLB):
            def access(self, lat_index: int) -> bool:  # old eviction, verbatim
                lru = self._lru
                if lat_index in lru:
                    self.hits += 1
                    return True
                self.misses += 1
                if len(lru) >= self.entries:
                    victim = self._rng.choice(list(lru))
                    del lru[victim]
                lru[lat_index] = None
                return False

        rng = random.Random(77)
        probes = [rng.randrange(12) for _ in range(3000)]
        new = CLB(entries=4, policy="random")
        old = OldCLB(entries=4, policy="random")
        assert new.simulate(probes) == old.simulate(probes)
        assert list(new._lru) == list(old._lru)


# ----------------------------------------------------------------------
# Refill tables vs the per-block loop
# ----------------------------------------------------------------------

WIDE_EPROM = MemoryModel("eprom64", 3, 3, bus_bytes=8)
MEMORIES = (EPROM, BURST_EPROM, SC_DRAM, WIDE_EPROM)


class TestRefillTables:
    @pytest.fixture(scope="class")
    def image(self):
        text = sample_text(lines=60, seed=8)
        return ProgramCompressor(make_code(text)).compress(text)

    @pytest.mark.parametrize("memory", MEMORIES, ids=lambda m: m.name)
    @pytest.mark.parametrize("detailed", (False, True), ids=("paper", "detailed"))
    @pytest.mark.parametrize("rate", (1, 2, 3, 4))
    def test_table_matches_per_block_loop(self, image, memory, detailed, rate):
        decoder = DecoderModel(bytes_per_cycle=rate, detailed=detailed)
        arrays = image.block_arrays()
        assert arrays is not None
        table = decoder.refill_cycles_table(arrays, memory)
        expected = [decoder.refill_cycles(block, memory) for block in image.blocks]
        assert table.tolist() == expected

    @pytest.mark.parametrize("memory", MEMORIES, ids=lambda m: m.name)
    def test_engine_arms_build_identical_tables(self, image, memory):
        decoder = DecoderModel(detailed=True)
        engine = RefillEngine(image, memory, decoder)
        cycles, fetched = reference_tables(image, memory, decoder)
        assert engine.ccrp_refill_cycles.tolist() == cycles
        assert engine.fetched_bytes_per_line.tolist() == fetched

    @pytest.mark.parametrize("memory", MEMORIES, ids=lambda m: m.name)
    @pytest.mark.parametrize("detailed", (False, True), ids=("paper", "detailed"))
    @pytest.mark.parametrize("line_size", (32, 64))
    def test_table_matches_per_block_loop_for_unbounded_code(
        self, memory, detailed, line_size
    ):
        # A traditional (unbounded) code on a Fibonacci-skewed histogram has
        # code words of up to ~40 bits: uint8 symbol_bits, but line sums and
        # cumulative bit positions beyond a byte (up to 504 bits in a
        # compressed 64-byte line).
        frequencies = [0] * 256
        a, b = 1, 1
        for symbol in range(40, 0, -1):
            frequencies[symbol] = a
            a, b = b, a + b
        frequencies[0] = b
        code = HuffmanCode.from_frequencies(frequencies)
        assert max(code.symbol_bit_lengths(bytes(range(1, 41)))) > 32
        # Rare symbols at the end of a line: their input arrives last, so
        # they set the detailed decode's finish time.
        rng = random.Random(5)
        text = bytearray(64 * line_size)
        for line in range(64):
            end = (line + 1) * line_size
            for offset in range(1, line % (line_size // 8) + 1):
                text[end - offset] = rng.randrange(31, 41)  # the rarest symbols
        # Blocks, not an image: the LAT format only describes 32-byte lines.
        blocks = BlockCompressor(code, line_size=line_size).compress_program(bytes(text))
        arrays = build_block_arrays(blocks, line_size)
        assert arrays.compressed.sum() > 32
        if line_size == 64:  # some compressed line overflows a byte accumulator
            assert arrays.symbol_bits.astype(int).sum(axis=1).max() > 255
        # A fast decoder waits on input, so bit positions set the finish time.
        decoder = DecoderModel(bytes_per_cycle=4, detailed=detailed)
        table = decoder.refill_cycles_table(arrays, memory)
        assert table.tolist() == [decoder.refill_cycles(block, memory) for block in blocks]

    def test_engine_rejects_non_uniform_image(self, image):
        first = next(i for i, block in enumerate(image.blocks) if block.is_compressed)
        with pytest.raises(CompressionError, match=f"^block {first}:"):
            RefillEngine(strip_symbol_bits(image, {first}), EPROM)


class TestDetailedIntegerArithmetic:
    """The integer recurrence must agree with the old float formula."""

    @staticmethod
    def float_reference(symbol_bits, arrivals, rate) -> int:
        import math

        finished = 0.0
        bits_consumed = 0
        for bits in symbol_bits:
            bits_consumed += bits
            input_byte = -(-bits_consumed // 8)
            available = arrivals[input_byte - 1]
            finished = max(finished, float(available)) + 1.0 / rate
        return math.ceil(finished - 1e-9)

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=32),
        rate=st.integers(min_value=1, max_value=4),
        memory=st.sampled_from(MEMORIES),
    )
    @settings(max_examples=120, deadline=None)
    def test_integer_decode_done_matches_float(self, lengths, rate, memory):
        total_bytes = -(-sum(lengths) // 8)
        arrivals = memory.byte_arrival_times(total_bytes)
        finished_steps = 0
        bits_consumed = 0
        for bits in lengths:
            bits_consumed += bits
            input_byte = -(-bits_consumed // 8)
            finished_steps = max(finished_steps, arrivals[input_byte - 1] * rate) + 1
        integer = -(-finished_steps // rate)
        assert integer == self.float_reference(lengths, arrivals, rate)


# ----------------------------------------------------------------------
# Batch line decode vs decode_fast
# ----------------------------------------------------------------------


class TestDecodeLines:
    @pytest.fixture(scope="class")
    def code_and_blobs(self):
        text = sample_text(lines=50, seed=3)
        code = make_code(text)
        compressor = BlockCompressor(code)
        blocks = compressor.compress_program(text)
        blobs = [block.data for block in blocks if block.is_compressed]
        assert blobs, "sample corpus must compress"
        return code, blobs, blocks

    def test_byte_identity_with_decode_fast(self, code_and_blobs):
        code, blobs, _ = code_and_blobs
        assert code.decode_lines(blobs, 32) == [code.decode_fast(b, 32) for b in blobs]

    def test_decompress_program_round_trips_through_batch(self, code_and_blobs):
        code, _, blocks = code_and_blobs
        text = sample_text(lines=50, seed=3)
        assert BlockCompressor(code).decompress_program(blocks) == text

    def test_truncated_blob_message_matches_decode_fast(self, code_and_blobs):
        code, blobs, _ = code_and_blobs
        truncated = blobs[0][:1]
        with pytest.raises(CompressionError) as scalar:
            code.decode_fast(truncated, 32)
        with pytest.raises(CompressionError) as batch:
            code.decode_lines([truncated], 32)
        assert str(batch.value) == str(scalar.value)

    def test_garbage_blobs_classify_like_decode_fast(self, code_and_blobs):
        code, blobs, _ = code_and_blobs
        rng = random.Random(123)
        for _ in range(40):
            garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 20)))
            try:
                expected = code.decode_fast(garbage, 32)
            except CompressionError as error:
                with pytest.raises(CompressionError) as batch:
                    code.decode_lines([garbage], 32)
                assert str(batch.value) == str(error)
            else:
                assert code.decode_lines([garbage], 32) == [expected]

    def test_errors_none_yields_none_slots(self, code_and_blobs):
        code, blobs, _ = code_and_blobs
        mixed = [blobs[0], blobs[0][:1], blobs[1]]
        out = code.decode_lines(mixed, 32, errors="none")
        assert out[0] == code.decode_fast(blobs[0], 32)
        assert out[1] is None
        assert out[2] == code.decode_fast(blobs[1], 32)

    def test_invalid_errors_mode_rejected(self, code_and_blobs):
        code, blobs, _ = code_and_blobs
        with pytest.raises(CompressionError):
            code.decode_lines(blobs, 32, errors="ignore")

    def test_empty_inputs(self, code_and_blobs):
        code, blobs, _ = code_and_blobs
        assert code.decode_lines([], 32) == []
        assert code.decode_lines([blobs[0]], 0) == [b""]

    def test_long_code_fallback_matches_scalar(self):
        # Fibonacci frequencies build a maximally lopsided Huffman tree,
        # pushing the rarest codes past the 16-bit window limit and
        # forcing the scalar fallback path.
        frequencies = [0] * 256
        frequencies[0], frequencies[1] = 1, 1
        for symbol in range(2, 28):
            frequencies[symbol] = frequencies[symbol - 1] + frequencies[symbol - 2]
        code = HuffmanCode.from_frequencies(
            frequencies, max_length=None, cover_all_symbols=True
        )
        assert code.max_length > 16
        rng = random.Random(9)
        text = bytes(rng.choices(range(28), weights=frequencies[:28], k=12 * 32))
        blocks = BlockCompressor(code).compress_program(text)
        blobs = [block.data for block in blocks if block.is_compressed]
        assert code.decode_lines(blobs, 32) == [code.decode_fast(b, 32) for b in blobs]

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_corpora_round_trip(self, seed):
        rng = random.Random(seed)
        text = bytes(
            rng.choices(range(256), weights=[300] + [3] * 127 + [1] * 128, k=12 * 32)
        )
        code = make_code(text)
        blocks = BlockCompressor(code).compress_program(text)
        blobs = [block.data for block in blocks if block.is_compressed]
        if blobs:
            assert code.decode_lines(blobs, 32) == [code.decode_fast(b, 32) for b in blobs]


# ----------------------------------------------------------------------
# Image plumbing and the functional cache
# ----------------------------------------------------------------------


class TestImageBatchPlumbing:
    @pytest.fixture(scope="class")
    def image(self):
        text = sample_text(lines=48, seed=21)
        return ProgramCompressor(make_code(text)).compress(text)

    def test_memory_image_is_memoised(self, image):
        assert image.memory_image() is image.memory_image()

    def test_block_arrays_match_blocks(self, image):
        arrays = image.block_arrays()
        assert arrays is not None
        assert arrays.stored_sizes.tolist() == [b.stored_size for b in image.blocks]
        assert arrays.compressed.tolist() == [b.is_compressed for b in image.blocks]
        rows = iter(arrays.symbol_bits)
        for block in image.blocks:
            if block.is_compressed:
                assert next(rows).tolist() == list(block.symbol_bits)

    def test_block_arrays_keep_symbol_bits_as_bytes(self, image):
        arrays = image.block_arrays()
        assert arrays.symbol_bits.dtype == np.uint8
        assert arrays.symbol_bits.shape == (arrays.compressed.sum(), image.line_size)

    def test_build_block_arrays_rejects_lengths_over_a_byte(self, image):
        compressed = [i for i, block in enumerate(image.blocks) if block.is_compressed]
        blocks = list(image.blocks)
        long = blocks[compressed[1]]
        blocks[compressed[1]] = dataclasses.replace(
            long, symbol_bits=(256,) + long.symbol_bits[1:]
        )
        with pytest.raises(CompressionError, match=f"^block {compressed[1]}:"):
            build_block_arrays(blocks, image.line_size)

    def test_expanded_lines_match_scalar_decode(self, image):
        lines = image.expanded_lines()
        for block, line in zip(image.blocks, lines):
            if block.is_compressed:
                assert line == image.code.decode_fast(block.data, image.line_size)
            else:
                assert line == block.data

    def test_build_block_arrays_rejects_missing_symbol_bits(self, image):
        compressed = [i for i, block in enumerate(image.blocks) if block.is_compressed]
        assert len(compressed) >= 3
        # The error names the first non-uniform block, not the first block.
        stripped = strip_symbol_bits(image, set(compressed[1:])).blocks
        with pytest.raises(CompressionError, match=f"^block {compressed[1]}:"):
            build_block_arrays(stripped, image.line_size)
        # A short symbol-length row is just as non-uniform as a missing one.
        blocks = list(image.blocks)
        short = blocks[compressed[2]]
        blocks[compressed[2]] = dataclasses.replace(
            short, symbol_bits=short.symbol_bits[:-1]
        )
        with pytest.raises(CompressionError, match=f"^block {compressed[2]}:"):
            build_block_arrays(blocks, image.line_size)

    def test_pickle_drops_lazy_caches(self, image):
        import pickle

        image.memory_image()
        image.expanded_lines()
        image.block_arrays()
        revived = pickle.loads(pickle.dumps(image))
        assert not any(key.endswith("_cache") for key in revived.__dict__)
        assert revived.memory_image() == image.memory_image()


class TestStudyWiring:
    """The grid-facing API on real programs, pinned to the reference models.

    ``nasa7`` and ``espresso`` are the Tables 9-10 programs, so every CLB
    count and refill table those tables read is checked here.
    """

    @pytest.fixture(scope="class")
    def studies(self):
        from repro.core.artifacts import get_study
        from repro.experiments.tables9_10 import CLB_PROGRAMS

        return (
            get_study("eightq", max_instructions=1_000_000),
            get_study("lloop01"),
        ) + tuple(get_study(program) for program in CLB_PROGRAMS)

    def test_clb_miss_counts_pin_to_stateful_clb(self, studies):
        from repro.experiments.tables1_8 import CACHE_SIZES
        from repro.experiments.tables9_10 import CLB_ENTRIES
        from repro.lat.entry import LINES_PER_ENTRY

        for study in studies:
            for cache_bytes in CACHE_SIZES:
                stream = study.cache_stats(cache_bytes).miss_lines // LINES_PER_ENTRY
                counts = study.clb_miss_counts(cache_bytes)
                for entries in sorted({1, 2, *CLB_ENTRIES}):
                    expected = CLB(entries=entries).simulate(stream)
                    assert counts[min(entries, max(counts))] == expected
                    assert study.clb_miss_count(cache_bytes, entries) == expected

    def test_refill_tables_and_line_decode_match_reference(self, studies):
        """The grid's refill tables and batch decode on real program images."""
        decoder = DecoderModel()
        for study in studies:
            image = study.image
            for memory in (EPROM, BURST_EPROM, SC_DRAM):
                engine = study.refill_engine(memory, decoder)
                cycles, fetched = reference_tables(image, memory, decoder)
                assert engine.ccrp_refill_cycles.tolist() == cycles
                assert engine.fetched_bytes_per_line.tolist() == fetched
            blobs = [block.data for block in image.blocks if block.is_compressed]
            assert blobs
            assert image.code.decode_lines(blobs, image.line_size) == [
                image.code.decode_fast(blob, image.line_size) for blob in blobs
            ]


class TestExpandingCacheBatchPath:
    @pytest.fixture(scope="class")
    def image(self):
        text = sample_text(lines=48, seed=4)
        return ProgramCompressor(make_code(text)).compress(text, text_base=0)

    def test_batch_and_scalar_paths_fetch_identical_lines(self, image, monkeypatch):
        compressed = sum(block.is_compressed for block in image.blocks)
        calls = []
        original = HuffmanCode.decode_fast

        def recording(self, blob, symbol_count):
            calls.append(blob)
            return original(self, blob, symbol_count)

        monkeypatch.setattr(HuffmanCode, "decode_fast", recording)
        # With every batch slot empty, each compressed fetch is decoded
        # scalar: the reference the batch lines must reproduce.
        with monkeypatch.context() as patch:
            patch.setattr(CompressedImage, "expanded_lines", all_none_lines)
            scalar = ExpandingInstructionCache(image, cache_bytes=256)
            expected = [
                scalar.read_line(line * image.line_size) for line in range(image.line_count)
            ]
        assert len(calls) == compressed > 0
        calls.clear()
        batch = ExpandingInstructionCache(image, cache_bytes=256)
        # An explicit (here pristine) store keeps the batch path: it is
        # used only for fetches equal to the block's stored bytes.
        overridden = ExpandingInstructionCache(
            image, cache_bytes=256, memory_image=image.memory_image()
        )
        for line in range(image.line_count):
            address = line * image.line_size
            assert batch.read_line(address) == expected[line]
            assert overridden.read_line(address) == expected[line]
        assert calls == []

    def test_init_serialises_at_most_once(self, image, monkeypatch):
        import repro.ccrp.image as image_module

        fresh = ProgramCompressor(make_code(sample_text(lines=8, seed=5))).compress(
            sample_text(lines=8, seed=5)
        )
        calls = {"count": 0}
        original = image_module.CompressedImage.memory_image

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(image_module.CompressedImage, "memory_image", counting)
        ExpandingInstructionCache(fresh, cache_bytes=256)
        assert calls["count"] == 1
