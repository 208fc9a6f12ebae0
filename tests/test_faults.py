"""Fault injection, integrity layer, blast radius, and harness degradation."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.ccrp.compressor import ProgramCompressor
from repro.ccrp.expanding_cache import ExpandingInstructionCache
from repro.ccrp.image import CompressedImage
from repro.compression.block import DEFAULT_LINE_SIZE, BlockCompressor
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.core.metrics import METRICS
from repro.core.standard import standard_code
from repro.core import pool
from repro.core.pool import FailureReport
from repro.core.sweep import sweep, sweep_many
from repro.compression.lzw import HEADER_BYTES, lzw_compress
from repro.errors import ConfigurationError, IntegrityError, ReproError
from repro.faults import (
    FAULT_MODELS,
    FaultInjector,
    add_integrity,
    blast_baseline,
    blast_block_codec,
    blast_lzw,
    crc8,
    diff_lines,
    line_crcs,
    refill_survey,
    validate_fault_model,
    validate_integrity_policy,
)
from repro.faults.checker import BlockStore, LZWStore, pad_to_lines
from repro.faults.injector import FaultRecord

import fault_oracle

PROGRAM = bytes(range(256)) * 8  # 2 KiB, 64 lines, every byte value

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _codes():
    histogram = byte_histogram(PROGRAM)
    return {
        "traditional": HuffmanCode.from_frequencies(histogram),
        "bounded": HuffmanCode.from_frequencies(histogram, max_length=16),
        "preselected": standard_code(),
    }


class TestInjector:
    def test_same_seed_same_faults(self):
        data = bytes(range(64))
        for model in FAULT_MODELS:
            first = FaultInjector(7).inject(data, model)
            second = FaultInjector(7).inject(data, model)
            assert first == second

    def test_different_seeds_diverge(self):
        data = bytes(256)
        records = {FaultInjector(seed).inject(data, "bit_flip")[1] for seed in range(16)}
        assert len(records) > 1

    def test_fault_always_changes_data(self):
        data = bytes(64)
        injector = FaultInjector(3)
        for model in FAULT_MODELS:
            for _ in range(20):
                corrupted, record = injector.inject(data, model)
                assert corrupted != data
                assert len(corrupted) == len(data)
                # The record is a replayable description of the fault.
                assert record.apply(data) == corrupted

    def test_bit_flip_touches_one_bit(self):
        corrupted, record = FaultInjector(11).inject(bytes(32), "bit_flip")
        diff = [a ^ b for a, b in zip(bytes(32), corrupted)]
        changed = [d for d in diff if d]
        assert len(changed) == 1 and bin(changed[0]).count("1") == 1
        assert record.model == "bit_flip"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_fault_model("gamma_ray")
        with pytest.raises(ConfigurationError):
            FaultInjector(1).inject(b"\x00" * 8, "gamma_ray")


class TestIntegrity:
    def test_crc8_known_properties(self):
        assert crc8(b"") == 0
        assert crc8(b"123456789") == 0xF4  # CRC-8/ATM check value

    def test_crc8_catches_every_single_bit_flip(self):
        data = bytes(range(32))
        golden = crc8(data)
        for byte_index in range(len(data)):
            for bit in range(8):
                mutated = bytearray(data)
                mutated[byte_index] ^= 1 << bit
                assert crc8(bytes(mutated)) != golden

    def test_policy_validation(self):
        for policy in ("strict", "detect", "off"):
            validate_integrity_policy(policy)
        with pytest.raises(ConfigurationError):
            validate_integrity_policy("maybe")

    def test_add_integrity_and_overhead(self):
        image = ProgramCompressor(standard_code()).compress(PROGRAM)
        assert image.line_crcs is None
        assert image.integrity_bytes == 0
        checked = add_integrity(image)
        assert checked.line_crcs == line_crcs(checked.blocks)
        assert checked.integrity_bytes == checked.line_count
        # One CRC byte per 32-byte line: the LAT's own 3.125% class.
        assert checked.integrity_overhead_ratio == pytest.approx(1 / 32)
        # Protection costs real stored bytes; the would-be quote on the
        # unprotected image matches what the protected one actually pays.
        assert checked.total_ratio_with_lat > image.total_ratio_with_lat
        assert image.total_ratio_with_integrity == pytest.approx(
            checked.total_ratio_with_lat
        )

    def test_compressor_integrity_flag(self):
        image = ProgramCompressor(standard_code(), integrity=True).compress(PROGRAM)
        assert image.line_crcs is not None
        assert len(image.line_crcs) == image.line_count


class TestExpandingCacheIntegrity:
    def _image_and_memory(self):
        image = ProgramCompressor(standard_code(), integrity=True).compress(PROGRAM)
        return image, image.memory_image()

    def _corrupt_code(self, image, memory, seed=5):
        lat_bytes = image.lat.storage_bytes
        region, _ = FaultInjector(seed).inject(memory[lat_bytes:], "bit_flip", "code")
        return memory[:lat_bytes] + region

    def test_clean_image_raises_no_events(self):
        image, memory = self._image_and_memory()
        # The survey walks no line of an unchanged image; the reference
        # walk refills every one of them and must see nothing either.
        cache, errors = refill_survey(image, "detect", memory)
        assert cache.misses == 0 and cache.integrity_events == [] and errors == []
        cache, errors = fault_oracle.refill_survey(image, "detect")
        assert cache.misses == image.line_count
        assert cache.integrity_events == [] and errors == []

    def test_detect_records_and_continues(self):
        image, memory = self._image_and_memory()
        before = METRICS.counter("integrity.detected")
        cache, _ = refill_survey(image, "detect", self._corrupt_code(image, memory))
        assert len(cache.integrity_events) >= 1
        assert METRICS.counter("integrity.detected") > before

    def test_strict_raises_with_line_number(self):
        image, memory = self._image_and_memory()
        with pytest.raises(IntegrityError) as excinfo:
            refill_survey(image, "strict", self._corrupt_code(image, memory))
        assert excinfo.value.line_number is not None

    def test_lat_corruption_detected(self):
        image, memory = self._image_and_memory()
        lat_bytes = image.lat.storage_bytes
        region, _ = FaultInjector(9).inject(memory[:lat_bytes], "bit_flip", "lat")
        cache, _ = refill_survey(image, "detect", region + memory[lat_bytes:])
        assert cache.integrity_events

    def test_off_policy_ignores_corruption(self):
        image, memory = self._image_and_memory()
        cache = ExpandingInstructionCache(
            image, integrity="off", memory_image=self._corrupt_code(image, memory)
        )
        base = image.text_base
        for line in range(image.line_count):
            try:
                cache.read_line(base + line * image.line_size)
            except ReproError as error:
                assert not isinstance(error, IntegrityError)
        assert cache.integrity_events == []

    def test_strict_requires_crcs(self):
        image = ProgramCompressor(standard_code()).compress(PROGRAM)
        with pytest.raises(ConfigurationError):
            ExpandingInstructionCache(image, integrity="strict")


class TestBatchedRefillAttribution:
    """A corrupt blob must fail with *its own* line number, and only there.

    The pristine-store refill path serves lines from the image's one
    batched ``decode_lines`` pass.  An image rebuilt from corrupted
    storage (corrupt ``blocks``, original CRC table) used to poison that
    whole batch: refilling any *healthy* line J raised the corrupt blob
    K's bare ``CompressionError`` — no line number, wrong line, and the
    strict policy's ``IntegrityError`` for K never surfaced with its
    attribution.  Now the batch leaves K's slot empty and the scalar
    fallback attributes the failure to exactly the line that owns it.
    """

    def _corrupted_image(self):
        """An integrity image whose middle compressed block no longer decodes.

        The corrupt bytes replace the block data (same length, so the
        LAT layout still matches) while ``line_crcs`` keeps the pristine
        table — corruption-after-attestation, the case integrity exists
        for.  The mutation is searched deterministically until the
        scalar decoder provably rejects it.
        """
        import dataclasses

        from repro.errors import CompressionError

        # Zero-heavy "program": compresses well under the preselected
        # code, so the image has real compressed blocks to corrupt.
        program = (bytes(range(0, 64, 2)) + bytes(32)) * 32
        image = ProgramCompressor(standard_code(), integrity=True).compress(program)
        compressed = [
            index for index, block in enumerate(image.blocks) if block.is_compressed
        ]
        assert compressed, "test program must produce compressed blocks"
        target = compressed[len(compressed) // 2]
        original = image.blocks[target].data
        for position in range(len(original)):
            for mask in (0xFF, 0x80, 0x01):
                mutated = bytearray(original)
                mutated[position] ^= mask
                try:
                    image.code.decode_fast(bytes(mutated), image.line_size)
                except CompressionError:
                    blocks = list(image.blocks)
                    blocks[target] = dataclasses.replace(
                        blocks[target], data=bytes(mutated)
                    )
                    return dataclasses.replace(image, blocks=tuple(blocks)), target
        raise AssertionError("no mutation made the block undecodable")

    def test_strict_attributes_the_corrupt_line_only(self):
        image, target = self._corrupted_image()
        cache = ExpandingInstructionCache(image, integrity="strict")
        base = image.text_base
        for line in range(image.line_count):
            address = base + line * image.line_size
            if line == target:
                with pytest.raises(IntegrityError) as excinfo:
                    cache.read_line(address)
                assert excinfo.value.line_number == target
            else:
                # Healthy lines refill normally — the corrupt blob no
                # longer poisons the batch they are served from.
                assert len(cache.read_line(address)) == image.line_size

    def test_detect_mode_scalar_fallback_names_the_line(self):
        from repro.errors import CompressionError

        image, target = self._corrupted_image()
        cache = ExpandingInstructionCache(image, integrity="detect")
        base = image.text_base
        for line in range(image.line_count):
            address = base + line * image.line_size
            if line == target:
                # detect records the CRC event and hands the line on to
                # the decoder, whose failure carries the attribution.
                with pytest.raises(CompressionError, match=f"line {target}"):
                    cache.read_line(address)
            else:
                cache.read_line(address)
        assert [event[0] for event in cache.integrity_events] == [target]

    def test_expanded_lines_reports_corrupt_slot_as_none(self):
        image, target = self._corrupted_image()
        lines = image.expanded_lines()
        assert lines[target] is None
        healthy = [line for index, line in enumerate(lines) if index != target]
        assert all(line is not None for line in healthy)


class TestBlastRadius:
    def test_single_bit_flip_corrupts_exactly_one_line(self):
        """The golden property: one flipped bit, one damaged 32-byte line."""
        for name, code in _codes().items():
            store = BlockStore.build(code, PROGRAM)
            injector = FaultInjector(1234)
            for _ in range(25):
                report = blast_block_codec(store, injector, "bit_flip", name)
                assert report.blast_radius <= 1, (name, report.record)
                assert report.span <= 1
                assert report.detected

    def test_byte_fault_bounded_and_detected(self):
        store = BlockStore.build(standard_code(), PROGRAM)
        injector = FaultInjector(77)
        for _ in range(25):
            report = blast_block_codec(store, injector, "byte")
            assert report.blast_radius <= 1

    def test_burst_bounded_by_straddled_blocks(self):
        from repro.faults.injector import DEFAULT_BURST_BYTES

        store = BlockStore.build(standard_code(), PROGRAM)
        injector = FaultInjector(42)
        for _ in range(25):
            report = blast_block_codec(store, injector, "burst")
            assert report.blast_radius <= DEFAULT_BURST_BYTES

    def test_baseline_damage_is_bytes_touched(self):
        injector = FaultInjector(6)
        report = blast_baseline(PROGRAM, injector, "bit_flip")
        assert report.codec == "raw"
        assert report.blast_radius == 1
        assert not report.detected

    def test_lzw_is_not_line_bounded(self):
        injector = FaultInjector(2024)
        store = LZWStore.build(PROGRAM)
        spans = [blast_lzw(store, injector, "byte").span for _ in range(40)]
        assert max(spans) > 1  # corruption spreads past the faulted line

    def test_diff_counts_missing_tail_lines(self):
        golden = bytes(96)
        truncated = bytes(40)  # covers line 0, part of line 1
        assert diff_lines(golden, truncated) == (1, 2)


class _Replay:
    """An injector that applies one chosen fault, clamped into the region."""

    def __init__(self, offset: int, masks: tuple[int, ...]) -> None:
        self.offset, self.masks = offset, masks

    def inject(self, data, model, target="code"):
        masks = self.masks[: len(data)]
        offset = self.offset % (len(data) - len(masks) + 1)
        record = FaultRecord(model, target, offset, len(masks), None, masks)
        return record.apply(data), record


class TestLZWFirstCodeFault:
    def test_corrupt_first_code_is_detected_not_a_crash(self):
        text = b"hello world" * 10
        # Bit 7 of payload byte 0 is the top bit of the first 9-bit code:
        # 'h' (104) becomes 360, which is not in the initial dictionary.
        assert lzw_compress(text)[HEADER_BYTES] & 0x80 == 0
        report = blast_lzw(LZWStore.build(text), _Replay(0, (1 << 7,)), "bit_flip")
        assert report.detected
        assert report.decode_error == "corrupt LZW stream: code 360"
        assert report.record.offset == HEADER_BYTES
        assert report.blast_radius == report.line_count


class TestPristineStoreReuse:
    """Trials share one pristine store per program, never its corruption."""

    def _reports(self, blast, store):
        injector = FaultInjector(31)
        return [blast(store, injector, model) for model in FAULT_MODELS for _ in range(4)]

    def test_block_codec_reports_repeat(self):
        for name, code in _codes().items():
            store = BlockStore.build(code, PROGRAM)
            first = self._reports(blast_block_codec, store)
            assert self._reports(blast_block_codec, store) == first, name
            assert self._reports(blast_block_codec, BlockStore.build(code, PROGRAM)) == first

    def test_lzw_reports_repeat(self):
        store = LZWStore.build(PROGRAM)
        first = self._reports(blast_lzw, store)
        assert self._reports(blast_lzw, store) == first
        assert self._reports(blast_lzw, LZWStore.build(PROGRAM)) == first

    def test_cached_store_parts_are_immutable(self):
        store = BlockStore.build(standard_code(), PROGRAM)
        assert type(store.compressed) is tuple and type(store.crcs) is bytes
        assert type(store.stored) is bytes and type(store.ends) is tuple
        blocks = BlockCompressor(standard_code()).compress_program(PROGRAM)
        assert store.crcs == line_crcs(blocks)
        assert store.stored == b"".join(block.data for block in blocks)
        assert store.compressed == tuple(block.is_compressed for block in blocks)
        assert store.ends[-1] == len(store.stored)
        lzw = LZWStore.build(PROGRAM)
        assert type(lzw.blob) is bytes and type(lzw.index.output) is bytes
        assert type(lzw.index.table) is tuple

    def test_pristine_store_must_decode_to_its_program(self, monkeypatch):
        def scrambled(self, blobs, symbol_count, errors="raise"):
            return [b"\xff" * symbol_count for _ in blobs]

        monkeypatch.setattr(HuffmanCode, "decode_lines", scrambled)
        with pytest.raises(ReproError, match="does not decode"):
            BlockStore.build(standard_code(), TestBatchRefillUnderOverride.PROGRAM)

    def test_trial_decodes_only_the_blocks_it_touches(self, monkeypatch):
        store = BlockStore.build(standard_code(), TestBatchRefillUnderOverride.PROGRAM)
        batches, scalar = [], []
        original = HuffmanCode.decode_fast

        def counting(self, blob, *args, **kwargs):
            scalar.append(blob)
            return original(self, blob, *args, **kwargs)

        monkeypatch.setattr(HuffmanCode, "decode_fast", counting)
        monkeypatch.setattr(
            HuffmanCode, "decode_lines", lambda self, blobs, *a, **k: batches.append(blobs)
        )
        injector = FaultInjector(5)
        for model in FAULT_MODELS * 4:
            report = blast_block_codec(store, injector, model)
            record = report.record
            starts = (0,) + store.ends[:-1]
            touched = [
                index
                for index, (start, end) in enumerate(zip(starts, store.ends))
                if end > record.offset and start < record.offset + record.length
            ]
            assert 1 <= len(touched) <= record.length
            assert set(report.corrupted_lines) <= set(touched)
            assert len(scalar) == sum(store.compressed[index] for index in touched)
            scalar.clear()
        assert batches == []


def _refill_walk(image, policy, memory):
    """Every line through a fresh cache: line bytes or error, and events."""
    cache = ExpandingInstructionCache(image, integrity=policy, memory_image=memory)
    lines = []
    for line in range(image.line_count):
        try:
            lines.append(cache.read_line(image.text_base + line * image.line_size))
        except ReproError as error:
            lines.append((type(error).__name__, str(error)))
            if isinstance(error, IntegrityError):
                break
    return lines, cache.integrity_events


def _all_none_lines(image) -> tuple[None, ...]:
    """Stand-in for :meth:`CompressedImage.expanded_lines` with every slot
    empty, which sends each compressed refill to ``decode_fast``."""
    return (None,) * len(image.blocks)


class TestBatchRefillUnderOverride:
    """A corrupted ``memory_image`` still refills healthy lines from the batch.

    The batch line is used only when the fetched bytes equal the block's
    pristine bytes, so the walk must match an all-scalar walk line for
    line, and only corrupt or displaced fetches reach ``decode_fast``.
    """

    PROGRAM = (bytes(range(0, 64, 2)) + bytes(32)) * 32  # compresses well

    def _cases(self):
        image = ProgramCompressor(standard_code(), integrity=True).compress(self.PROGRAM)
        memory = image.memory_image()
        lat_bytes = image.lat.storage_bytes
        for seed in range(8):
            code_region, _ = FaultInjector(seed).inject(memory[lat_bytes:], "bit_flip", "code")
            yield image, memory[:lat_bytes] + code_region
            lat_region, _ = FaultInjector(seed).inject(memory[:lat_bytes], "bit_flip", "lat")
            yield image, lat_region + memory[lat_bytes:]

    @pytest.mark.parametrize("policy", ["detect", "strict"])
    def test_matches_reference_mode(self, policy, monkeypatch):
        outcomes = set()
        for image, memory in self._cases():
            fast = _refill_walk(image, policy, memory)
            with monkeypatch.context() as patch:
                patch.setattr(CompressedImage, "expanded_lines", _all_none_lines)
                reference = _refill_walk(image, policy, memory)
            assert fast == reference
            outcomes.update(type(item) for item in fast[0])
            assert fast[1], "every case corrupts a fetched block"
        # The cases exercise both served lines and refused ones.
        assert outcomes == {bytes, tuple}

    def test_fault_study_refill_rows_match_scalar_refills(self, monkeypatch):
        """The exported refill-survey rows, with and without the batch path."""
        from repro.experiments.fault_study import (
            DEFAULT_PROGRAMS,
            DEFAULT_TRIALS,
            _refill_trials,
        )

        fast = _refill_trials(DEFAULT_PROGRAMS, DEFAULT_TRIALS, 1992)
        with monkeypatch.context() as patch:
            patch.setattr(CompressedImage, "expanded_lines", _all_none_lines)
            reference = _refill_trials(DEFAULT_PROGRAMS, DEFAULT_TRIALS, 1992)
        assert fast == reference
        assert all(row.detected for row in fast)

    def test_decode_fast_only_for_changed_fetches(self, monkeypatch):
        calls = []
        current = [None]
        original = HuffmanCode.decode_fast

        def recording(self, blob, symbol_count):
            calls.append((current[0], blob))
            return original(self, blob, symbol_count)

        monkeypatch.setattr(HuffmanCode, "decode_fast", recording)
        total_calls = 0
        for image, memory in self._cases():
            cache = ExpandingInstructionCache(image, integrity="detect", memory_image=memory)
            for line in range(image.line_count):
                current[0] = line
                try:
                    cache.read_line(image.text_base + line * image.line_size)
                except ReproError:
                    pass
            for line, blob in calls:
                assert blob != image.blocks[image.line_index(line)].data, line
            assert len(calls) <= len(cache.integrity_events)
            total_calls += len(calls)
            calls.clear()
        assert total_calls > 0


#: Compressed all-zero lines, compressed mixed lines, bypass lines, and a
#: partial last line: every kind of block a fault can land in.
MIXED_PROGRAM = (bytes(range(0, 64, 2)) + bytes(32)) * 6 + bytes(range(256)) * 2 + b"\x07\x01"


def _fault_masks():
    return st.lists(st.integers(1, 255), min_size=1, max_size=4).map(tuple)


class TestLocalTrialsMatchOracle:
    """Each local trial equals the whole-program walk of ``fault_oracle``."""

    @pytest.fixture(scope="class")
    def block_stores(self):
        return {
            name: (code, BlockStore.build(code, MIXED_PROGRAM))
            for name, code in _codes().items()
        }

    @pytest.fixture(scope="class")
    def lzw_store(self):
        return LZWStore.build(MIXED_PROGRAM)

    @pytest.fixture(scope="class")
    def image(self):
        image = ProgramCompressor(standard_code(), integrity=True).compress(
            MIXED_PROGRAM, text_base=0x400000
        )
        # The last LAT entry holds fewer than eight lines.
        assert image.line_count % 8
        return image

    def _block_pair(self, stores, name, offset, masks, model="burst"):
        code, store = stores[name]
        local = blast_block_codec(store, _Replay(offset, masks), model, name)
        oracle = fault_oracle.blast_block_codec(
            code, MIXED_PROGRAM, _Replay(offset, masks), model, name
        )
        assert local == oracle
        return local

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_codes())), st.integers(min_value=0), _fault_masks())
    def test_block_trials(self, block_stores, name, offset, masks):
        self._block_pair(block_stores, name, offset, masks)

    def test_block_bursts_straddle_and_clamp(self, block_stores):
        for name, (_, store) in block_stores.items():
            straddled = 0
            for end in store.ends[:-1]:
                report = self._block_pair(block_stores, name, end - 2, (0xFF, 0x81, 0x3C, 0x01))
                straddled += report.record.offset < end < report.record.offset + 4
            assert straddled == len(store.ends) - 1
            # An offset past the end clamps the burst onto the last bytes.
            report = self._block_pair(block_stores, name, len(store.stored) - 4, (0xA5,) * 4)
            assert report.record.offset + 4 == len(store.stored)

    def test_block_faults_in_bypass_blocks(self, block_stores):
        for name, (_, store) in block_stores.items():
            bypass = [i for i, compressed in enumerate(store.compressed) if not compressed]
            assert bypass, name
            for index in bypass:
                start = store.ends[index - 1] if index else 0
                report = self._block_pair(block_stores, name, start + 5, (0x10,), "byte")
                assert report.corrupted_lines == (index,) and report.detected

    def test_refused_all_zero_line_counts_as_clean(self, block_stores):
        code, store = block_stores["preselected"]
        zero = bytes(store.line_size)
        starts = (0,) + store.ends[:-1]
        for index, (start, end) in enumerate(zip(starts, store.ends)):
            if not store.compressed[index] or store.golden[index * 32 : index * 32 + 32] != zero:
                continue
            for position in range(end - start):
                for mask in (0xFF, 0x80, 0x01, 0x0F, 0xF0):
                    report = self._block_pair(block_stores, "preselected", start + position, (mask,))
                    if report.decode_error is not None:
                        assert report.detected and report.blast_radius == 0
                        return
        raise AssertionError("no fault made an all-zero line's decode refuse")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0), _fault_masks())
    def test_lzw_trials(self, lzw_store, offset, masks):
        local = blast_lzw(lzw_store, _Replay(offset, masks), "burst")
        oracle = fault_oracle.blast_lzw(MIXED_PROGRAM, _Replay(offset, masks), "burst")
        assert local == oracle

    def test_lzw_faults_in_the_first_code_and_the_padding(self, lzw_store):
        from repro.compression.lzw import DEFAULT_MAX_BITS, _lzw_codes

        code_bits = sum(width for _, width in _lzw_codes(lzw_store.golden, DEFAULT_MAX_BITS))
        payload_bits = (len(lzw_store.blob) - HEADER_BYTES) * 8
        assert payload_bits > code_bits, "the stream must end in padding bits"
        faults = [(0, (0x80 >> bit,)) for bit in range(8)]
        faults.append((1, (0x80,)))  # the ninth bit, still the first code
        faults += [
            (code_bits // 8, (1 << (7 - bit % 8),)) for bit in range(code_bits, payload_bits)
        ]
        for offset, masks in faults:
            local = blast_lzw(lzw_store, _Replay(offset, masks), "bit_flip")
            oracle = fault_oracle.blast_lzw(MIXED_PROGRAM, _Replay(offset, masks), "bit_flip")
            assert local == oracle
        # A flipped padding bit is never read.
        assert local.blast_radius == 0 and not local.detected

    def test_seeded_trials_match(self, block_stores, lzw_store):
        for model in FAULT_MODELS:
            for name, (code, store) in block_stores.items():
                local, oracle = FaultInjector(11), FaultInjector(11)
                for _ in range(10):
                    assert blast_block_codec(store, local, model, name) == (
                        fault_oracle.blast_block_codec(code, MIXED_PROGRAM, oracle, model, name)
                    )
            local, oracle = FaultInjector(13), FaultInjector(13)
            for _ in range(10):
                assert blast_lzw(lzw_store, local, model) == fault_oracle.blast_lzw(
                    MIXED_PROGRAM, oracle, model
                )

    def _survey(self, survey, image, memory):
        cache, errors = survey(image, "detect", memory)
        try:
            survey(image, "strict", memory)
            trap = None
        except IntegrityError as error:
            trap = str(error)
        return cache.integrity_events, errors, trap

    def _refill_pair(self, image, memory):
        local = self._survey(refill_survey, image, memory)
        assert local == self._survey(fault_oracle.refill_survey, image, memory)
        return local

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), st.integers(min_value=0), _fault_masks())
    def test_refill_surveys(self, image, in_lat, offset, masks):
        memory = image.memory_image()
        lat_bytes = image.lat.storage_bytes
        if in_lat:
            region, _ = _Replay(offset, masks).inject(memory[:lat_bytes], "burst", "lat")
            corrupted = region + memory[lat_bytes:]
        else:
            region, _ = _Replay(offset, masks).inject(memory[lat_bytes:], "burst")
            corrupted = memory[:lat_bytes] + region
        self._refill_pair(image, corrupted)

    def test_refill_faults_in_the_last_partial_lat_entry(self, image):
        memory = image.memory_image()
        lat_bytes = image.lat.storage_bytes
        events = 0
        for offset in range(lat_bytes - 8, lat_bytes):
            for bit in range(8):
                corrupted = FaultRecord("bit_flip", "lat", offset, 1, bit, (1 << bit,)).apply(memory)
                events += bool(self._refill_pair(image, corrupted)[0])
        assert events


class TestCorruptedDecodeFuzz:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_corrupted_block_decode_terminates(self, data):
        """Decoding any corrupted bitstream returns bytes or raises a
        ReproError — it never hangs and never leaks a foreign exception."""
        codes = _codes()
        name = data.draw(st.sampled_from(sorted(codes)))
        code = codes[name]
        compressor = BlockCompressor(code)
        blocks = compressor.compress_program(PROGRAM[: 32 * 8])
        block = blocks[data.draw(st.integers(0, len(blocks) - 1))]
        mutation = data.draw(
            st.one_of(
                st.binary(min_size=0, max_size=len(block.data)),
                st.just(block.data[: data.draw(st.integers(0, len(block.data)))]),
            )
        )
        if not block.is_compressed:
            return
        try:
            decoded = code.decode_fast(mutation, DEFAULT_LINE_SIZE)
        except ReproError:
            return
        assert isinstance(decoded, bytes)
        assert len(decoded) == DEFAULT_LINE_SIZE


def _force_pool(monkeypatch) -> None:
    """Report two CPUs, so ``jobs=2`` runs a real pool on a one-CPU runner."""
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)


class TestHarnessDegradation:
    AXES = dict(cache_sizes=(512,), memories=("eprom",))

    def test_sweep_unknown_workload_graceful(self):
        result = sweep("no-such-program", **self.AXES)
        assert result.reports == ()
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, FailureReport)
        assert failure.workload == "no-such-program"
        assert "unknown workload" in failure.message
        assert "no-such-program" in failure.render()

    def test_sweep_strict_raises_annotated(self):
        with pytest.raises(ConfigurationError) as excinfo:
            sweep("no-such-program", strict=True, **self.AXES)
        assert "no-such-program" in str(excinfo.value)

    def test_sweep_strict_grid_point_keeps_the_error_class(self):
        with pytest.raises(ConfigurationError, match="workload 'eightq' at nosuch/512B"):
            sweep("eightq", cache_sizes=(512,), memories=("nosuch",), strict=True, retries=0)

    def test_sweep_many_partial_results_serial(self):
        result = sweep_many(["eightq", "no-such-program"], **self.AXES)
        assert len(result.reports) == 1
        assert len(result.failures) == 1
        assert result.failures[0].workload == "no-such-program"
        assert not result.ok

    def test_sweep_many_partial_results_parallel(self, monkeypatch):
        _force_pool(monkeypatch)
        result = sweep_many(["eightq", "no-such-program"], jobs=2, **self.AXES)
        assert len(result.reports) == 1
        assert len(result.failures) == 1
        assert result.failures[0].workload == "no-such-program"

    def test_sweep_many_strict_parallel_fails_fast(self, monkeypatch):
        _force_pool(monkeypatch)
        with pytest.raises(ConfigurationError) as excinfo:
            sweep_many(["eightq", "no-such-program"], jobs=2, strict=True, **self.AXES)
        assert "no-such-program" in str(excinfo.value)

    def test_failure_counters(self):
        before = METRICS.counter("sweep.failures")
        sweep("no-such-program", **self.AXES)
        assert METRICS.counter("sweep.failures") > before


class TestFaultStudyAndCLI:
    def test_smoke_study_properties_hold(self):
        from repro.experiments.fault_study import run_fault_study

        result = run_fault_study(programs=("eightq",), trials_per_case=2, seed=3)
        assert result.violations() == []
        table = result.render()
        assert "preselected" in table and "lzw" in table
        # Determinism: same seed reproduces the tables bit for bit.
        again = run_fault_study(programs=("eightq",), trials_per_case=2, seed=3)
        assert again == result

    def test_default_study_at_two_trials_has_no_violations(self):
        # The default programs and seed at two trials per cell: every
        # codec x fault-model cell, in under a second.
        from repro.experiments.fault_study import run_fault_study

        assert run_fault_study(trials_per_case=2).violations() == []

    def test_cli_smoke(self, capsys):
        from repro.experiments.runner import main

        assert main(["fault-study"]) == 0
        out = capsys.readouterr().out
        assert "blast radius" in out and "Refill-path" in out

    def test_cli_output_file(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["fault-study", "--output-dir", str(tmp_path)]) == 0
        for name in ("fault-study.json", "fault-study.txt"):
            assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes()
