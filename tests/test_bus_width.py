"""Tests for bus-width generalisation and the bus-width experiment."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.ccrp.decoder import DecoderModel
from repro.compression.block import CompressedBlock
from repro.memsys import BURST_EPROM, EPROM, MemoryModel


class TestBusWidthModel:
    def test_default_is_32_bit(self):
        assert EPROM.bus_bytes == 4

    def test_beats_for_bytes(self):
        wide = BURST_EPROM.with_bus_bytes(8)
        assert wide.beats_for_bytes(32) == 4
        assert wide.beats_for_bytes(33) == 5
        assert wide.beats_for_bytes(1) == 1

    def test_bytes_read_cycles_scales_with_width(self):
        narrow = BURST_EPROM.bytes_read_cycles(32)  # 3 + 7 = 10
        wide = BURST_EPROM.with_bus_bytes(8).bytes_read_cycles(32)  # 3 + 3 = 6
        wider = BURST_EPROM.with_bus_bytes(16).bytes_read_cycles(32)  # 3 + 1 = 4
        assert (narrow, wide, wider) == (10, 6, 4)

    def test_byte_arrival_times(self):
        arrivals = BURST_EPROM.byte_arrival_times(8)
        assert arrivals == [3, 3, 3, 3, 4, 4, 4, 4]
        wide = BURST_EPROM.with_bus_bytes(8).byte_arrival_times(8)
        assert wide == [3] * 8

    def test_with_bus_bytes_renames(self):
        assert BURST_EPROM.with_bus_bytes(8).name == "burst_epromx64"

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryModel(name="x", first_word_cycles=1, next_word_cycles=1, bus_bytes=3)

    def test_invalid_transfer_rejected(self):
        with pytest.raises(ConfigurationError):
            EPROM.beats_for_bytes(0)


class TestDecoderOnWideBuses:
    def _block(self, bits_per_byte: int) -> CompressedBlock:
        bit_length = 32 * bits_per_byte
        stored = (bit_length + 7) // 8
        return CompressedBlock(
            data=bytes(stored),
            is_compressed=True,
            bit_length=bit_length,
            symbol_bits=(bits_per_byte,) * 32,
        )

    def test_bypass_scales_with_bus(self):
        block = CompressedBlock(
            data=bytes(32), is_compressed=False, bit_length=256, symbol_bits=None
        )
        decoder = DecoderModel()
        assert decoder.refill_cycles(block, BURST_EPROM) == 10
        assert decoder.refill_cycles(block, BURST_EPROM.with_bus_bytes(8)) == 6

    def test_decode_floor_unchanged_by_bus(self):
        """A 2 B/cycle decoder cannot exploit a wider bus (paper 3.4)."""
        block = self._block(bits_per_byte=5)
        decoder = DecoderModel(bytes_per_cycle=2)
        narrow = decoder.refill_cycles(block, BURST_EPROM)
        wide = decoder.refill_cycles(block, BURST_EPROM.with_bus_bytes(16))
        assert narrow == wide == 19  # first beat + 16 cycles

    def test_fast_decoder_exploits_wide_bus(self):
        # 28-byte block: on the 32-bit bus the fetch (3+6=9) dominates an
        # 8 B/cycle decoder (3+4=7); the 128-bit bus removes that limit.
        block = self._block(bits_per_byte=7)
        fast = DecoderModel(bytes_per_cycle=8)
        narrow = fast.refill_cycles(block, BURST_EPROM)
        wide = fast.refill_cycles(block, BURST_EPROM.with_bus_bytes(16))
        assert wide < narrow

    def test_detailed_model_on_wide_bus(self):
        block = self._block(bits_per_byte=5)
        detailed = DecoderModel(bytes_per_cycle=8, detailed=True)
        cycles = detailed.refill_cycles(block, BURST_EPROM.with_bus_bytes(16))
        # 20-byte block: 2 beats (arrive 3, 4); 32 bytes at 8/cycle = 4 cyc.
        assert 7 <= cycles <= 9


class TestBusWidthExperiment:
    PROGRAMS = ("espresso", "fpppp")

    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.bus_width import run_bus_width

        return run_bus_width(programs=self.PROGRAMS)

    def test_wider_bus_hurts_fixed_decoder(self, result):
        """The paper's warning: a 2 B/cycle decoder falls behind as the
        bus widens."""
        for program in self.PROGRAMS:
            by_bus = [
                result.row_for(program, bus).relative_performance[2] for bus in (4, 8, 16)
            ]
            assert by_bus == sorted(by_bus)
            assert by_bus[-1] > by_bus[0]

    def test_faster_decoder_recovers(self, result):
        for program in self.PROGRAMS:
            for bus in (4, 8, 16):
                row = result.row_for(program, bus).relative_performance
                assert row[8] < row[4] < row[2]

    def test_baseline_refill_shrinks_with_bus(self, result):
        for program in self.PROGRAMS:
            refills = [
                result.row_for(program, bus).baseline_refill_cycles for bus in (4, 8, 16)
            ]
            assert refills == sorted(refills, reverse=True)

    def test_render(self, result):
        assert "Bus-width sensitivity" in result.render()
