"""Tests for the sweep API and the flat pipeline-stall model."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro.core import SystemConfig, compare
from repro.core.sweep import CSV_COLUMNS, sweep, sweep_many
from repro.isa import Assembler
from repro.machine import Machine
from repro.machine.stalls import R2000_STALLS, StallModel


class TestSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return sweep("eightq", cache_sizes=(256, 512), memories=("eprom", "burst_eprom"))

    def test_cross_product_size(self, result):
        assert len(result) == 4

    def test_matches_compare(self, result):
        direct = compare("eightq", SystemConfig(cache_bytes=256, memory="eprom"))
        swept = result.filter(memory="eprom", cache_bytes=256).reports[0]
        assert swept.relative_execution_time == pytest.approx(
            direct.relative_execution_time
        )

    def test_filter(self, result):
        eprom = result.filter(memory="eprom")
        assert len(eprom) == 2
        assert all(report.memory == "eprom" for report in eprom.reports)

    def test_best_and_worst(self, result):
        assert result.best().relative_execution_time <= result.worst().relative_execution_time
        # For eightq the best point is the EPROM small-cache win.
        assert result.best().memory == "eprom"

    def test_best_of_empty_raises(self, result):
        with pytest.raises(ValueError):
            result.filter(memory="flash").best()

    def test_rows_schema(self, result):
        rows = result.rows()
        assert set(rows[0]) == set(CSV_COLUMNS)

    def test_to_csv(self, result, tmp_path):
        path = result.to_csv(tmp_path / "sweep.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result)
        assert float(rows[0]["relative_execution_time"]) > 0

    def test_sweep_many_concatenates(self):
        result = sweep_many(
            ("eightq", "lloop01"), cache_sizes=(256,), memories=("eprom",)
        )
        assert {report.program for report in result.reports} == {"eightq", "lloop01"}

    def test_parallel_sweep_matches_serial(self, result):
        parallel = sweep_many(
            ("eightq", "lloop01"),
            cache_sizes=(256, 512),
            memories=("eprom", "burst_eprom"),
            jobs=2,
        )
        assert parallel.filter(program="eightq").reports == result.reports

    def test_parallel_sweep_many_matches_serial(self):
        axes = dict(cache_sizes=(256,), memories=("eprom", "burst_eprom"))
        serial = sweep_many(("eightq", "lloop01"), **axes)
        parallel = sweep_many(("eightq", "lloop01"), jobs=2, **axes)
        assert parallel.reports == serial.reports

    def test_clb_and_data_axes(self):
        result = sweep(
            "eightq",
            cache_sizes=(256,),
            memories=("eprom",),
            clb_entries=(4, 16),
            data_miss_rates=(0.0, 1.0),
        )
        assert len(result) == 4
        assert {report.clb_entries for report in result.reports} == {4, 16}
        assert {report.data_cache_miss_rate for report in result.reports} == {0.0, 1.0}


def run_program(source: str):
    program = Assembler().assemble(source)
    result = Machine(program).run()
    return program, result


class TestStallModel:
    """The flat model charges each long-latency result as if read at once."""

    def _stalls(self, source):
        program, result = run_program(source)
        return R2000_STALLS.stall_cycles(result.trace.instruction_indices, program.instructions)

    def test_immediate_read_charges_full_latency(self):
        stalls = self._stalls(
            "main: li $t0, 3\nli $t1, 4\nmult $t0, $t1\nmflo $t2\nli $v0, 10\nsyscall"
        )
        assert stalls == 11  # 12-cycle multiply, one issue cycle

    def test_divide_latency(self):
        stalls = self._stalls(
            "main: li $t0, 9\nli $t1, 2\ndiv $t0, $t1\nmflo $t2\nli $v0, 10\nsyscall"
        )
        assert stalls == 34

    def test_fp_latencies_charged(self):
        stalls = self._stalls(
            """
            main:
                mtc1 $zero, $f0
                mtc1 $zero, $f1
                add.d $f2, $f0, $f0
                li $v0, 10
                syscall
            """
        )
        assert stalls == 1  # add.d extra cycle

    def test_custom_flat_model_override(self):
        model = StallModel(extra_cycles={"mult": 5})
        program, result = run_program(
            "main: li $t0, 3\nmult $t0, $t0\nli $v0, 10\nsyscall"
        )
        assert (
            model.stall_cycles(result.trace.instruction_indices, program.instructions)
            == 5
        )
