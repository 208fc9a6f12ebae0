"""Tests for the experiment harness: every table/figure regenerates and
shows the paper's qualitative results (who wins, where, by how much)."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import run_ablations
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure9 import run_figure9
from repro.experiments.formats import ascii_scatter, percent, render_table
from repro.experiments.tables1_8 import run_tables1_8
from repro.experiments.tables9_10 import CLB_ENTRIES, run_tables9_10
from repro.experiments.tables11_13 import DATA_MISS_RATES, run_tables11_13


# Module-scoped results: each experiment runs once for all its tests.
@pytest.fixture(scope="module")
def figure5():
    return run_figure5()


@pytest.fixture(scope="module")
def tables1_8():
    return run_tables1_8(programs=("nasa7", "espresso", "fpppp", "eightq"))


@pytest.fixture(scope="module")
def tables9_10():
    return run_tables9_10(cache_sizes=(256, 1024, 4096))


@pytest.fixture(scope="module")
def figure9():
    return run_figure9(
        programs=("nasa7", "espresso", "fpppp", "eightq", "nasa1"),
        cache_sizes=(256, 512, 1024, 4096),
    )


@pytest.fixture(scope="module")
def tables11_13():
    return run_tables11_13()


class TestFormats:
    def test_render_table_alignment(self):
        text = render_table("T", ("a", "b"), [("x", 1.5), ("long", 2.25)])
        assert "T" in text and "1.500" in text and "2.250" in text

    def test_percent(self):
        assert percent(0.0513) == "5.13%"

    def test_ascii_scatter_handles_empty(self):
        assert ascii_scatter([]) == "(no data)"

    def test_ascii_scatter_plots_markers(self):
        plot = ascii_scatter([(0.0, 0.0, "x"), (1.0, 1.0, "o")], width=10, height=5)
        assert "x" in plot and "o" in plot


class TestFigure5:
    def test_all_ten_programs_present(self, figure5):
        assert len(figure5.rows) == 10

    def test_every_method_compresses_the_large_programs(self, figure5):
        for row in figure5.rows:
            if row.original_bytes > 20_000:
                assert row.unix_compress < 1.0
                assert row.traditional_huffman < 1.0
                assert row.preselected_huffman < 1.0

    def test_weighted_average_ordering_matches_paper(self, figure5):
        """compress < traditional <= bounded; all Huffman variants close."""
        weighted = figure5.weighted
        assert weighted.unix_compress < weighted.traditional_huffman
        # Per-line byte padding and the bypass rule can flip the order by a
        # few bytes across a 660 KB corpus; allow that rounding slack.
        assert weighted.traditional_huffman <= weighted.bounded_huffman + 1e-4

    def test_bounded_nearly_as_good_as_traditional(self, figure5):
        weighted = figure5.weighted
        assert weighted.bounded_huffman - weighted.traditional_huffman < 0.02

    def test_preselected_nearly_as_good_as_bounded(self, figure5):
        """The paper's key claim: one fixed code is almost as effective."""
        weighted = figure5.weighted
        assert abs(weighted.preselected_huffman - weighted.bounded_huffman) < 0.03

    def test_huffman_family_in_paper_ballpark(self, figure5):
        """Preselected weighted average ~70-80% of original size."""
        assert 0.65 < figure5.weighted.preselected_huffman < 0.85

    def test_preselected_beats_per_program_code_on_small_programs(self, figure5):
        """Small programs cannot amortise the 256-byte code table."""
        eightq = next(row for row in figure5.rows if row.program == "eightq")
        assert eightq.preselected_huffman < eightq.traditional_huffman

    def test_render_includes_weighted_average(self, figure5):
        assert "Weighted Avg" in figure5.render()


class TestTables1To8:
    def test_eprom_ccrp_wins_at_small_caches(self, tables1_8):
        """Paper: 'given a slow memory model like the EPROM model,
        performance almost always is improved by using compressed code.'"""
        for table in tables1_8.tables:
            row = next(
                r for r in table.rows if r.memory == "eprom" and r.cache_bytes == 256
            )
            assert row.relative_performance < 1.02
            if table.program in ("nasa7", "espresso", "eightq"):
                assert row.relative_performance < 1.0

    def test_burst_eprom_ccrp_loses_moderately(self, tables1_8):
        """Faster memory: execution time increases, espresso worst."""
        espresso = tables1_8.table_for("espresso")
        for row in espresso.rows:
            if row.memory == "burst_eprom":
                assert 1.0 < row.relative_performance < 1.6
        # No free lunch on fast memory for any program.
        for table in tables1_8.tables:
            for row in table.rows:
                if row.memory == "burst_eprom":
                    assert row.relative_performance >= 0.999

    def test_espresso_suffers_most_on_fast_memory(self, tables1_8):
        def worst(program):
            return max(
                row.relative_performance
                for row in tables1_8.table_for(program).rows
                if row.memory == "burst_eprom"
            )

        assert worst("espresso") > worst("nasa7")
        assert worst("espresso") > worst("fpppp")

    def test_memory_traffic_reduced_in_all_cases(self, tables1_8):
        """Paper conclusion: traffic is 'significantly reduced in all cases'.

        Rows with essentially no misses carry only start-up traffic, where
        a handful of LAT-entry reads can tip the ratio over 1; any row with
        real miss activity must show a reduction.
        """
        for table in tables1_8.tables:
            for row in table.rows:
                if row.miss_rate > 0.001:
                    assert row.memory_traffic < 1.0
                else:
                    assert row.memory_traffic < 1.1

    def test_miss_rate_decreases_with_cache_size(self, tables1_8):
        for table in tables1_8.tables:
            eprom_rows = [row for row in table.rows if row.memory == "eprom"]
            rates = [row.miss_rate for row in eprom_rows]
            assert rates == sorted(rates, reverse=True)

    def test_fpppp_cliff_between_1k_and_2k(self, tables1_8):
        fpppp = tables1_8.table_for("fpppp")
        by_size = {
            row.cache_bytes: row.miss_rate
            for row in fpppp.rows
            if row.memory == "eprom"
        }
        assert by_size[1024] > 0.05
        assert by_size[2048] < 0.005

    def test_dram_rows_only_for_first_program(self, tables1_8):
        memories = {row.memory for row in tables1_8.table_for("nasa7").rows}
        assert "sc_dram" in memories
        memories = {row.memory for row in tables1_8.table_for("espresso").rows}
        assert "sc_dram" not in memories

    def test_dram_similar_to_burst_eprom(self, tables1_8):
        """Paper: 'The DRAM memory model produces quite similar results
        to the Burst EPROM memory model.'"""
        nasa7 = tables1_8.table_for("nasa7")
        for cache_bytes in (256, 1024, 4096):
            burst = next(
                r.relative_performance
                for r in nasa7.rows
                if r.memory == "burst_eprom" and r.cache_bytes == cache_bytes
            )
            dram = next(
                r.relative_performance
                for r in nasa7.rows
                if r.memory == "sc_dram" and r.cache_bytes == cache_bytes
            )
            assert abs(burst - dram) < 0.08

    def test_render_mentions_program_and_clb(self, tables1_8):
        text = tables1_8.render()
        assert "Table 1: nasa7" in text
        assert "16 entry CLB" in text


class TestTables9To10:
    def test_minor_variation_with_clb_size(self, tables9_10):
        """Paper: 'only minor variations with respect to CLB size'."""
        for table in tables9_10.tables:
            for row in table.rows:
                values = [row.relative_performance[entries] for entries in CLB_ENTRIES]
                assert max(values) - min(values) < 0.05

    def test_smaller_clb_never_faster(self, tables9_10):
        for table in tables9_10.tables:
            for row in table.rows:
                assert (
                    row.relative_performance[16]
                    <= row.relative_performance[8] + 1e-9
                    <= row.relative_performance[4] + 2e-9
                )

    def test_covers_both_programs(self, tables9_10):
        assert {table.program for table in tables9_10.tables} == {"nasa7", "espresso"}
        assert {table.table_number for table in tables9_10.tables} == {9, 10}


class TestFigure9:
    def test_point_cloud_covers_all_models(self, figure9):
        for memory in ("eprom", "burst_eprom", "sc_dram"):
            assert len(figure9.points_for(memory)) >= 10
        # Every (program, cache size, memory) cell of the grid is plotted.
        assert len(figure9.points) == 5 * 4 * 3

    def test_eprom_trend_improves_with_miss_rate(self, figure9):
        """Slow memory: higher miss rate -> CCRP wins more (slope < 0)."""
        assert figure9.trend_slope("eprom") < 0

    def test_fast_memory_trends_hurt_with_miss_rate(self, figure9):
        assert figure9.trend_slope("burst_eprom") > 0
        assert figure9.trend_slope("sc_dram") > 0

    def test_low_miss_rate_points_near_unity(self, figure9):
        for point in figure9.points:
            if point.miss_rate < 0.0005:
                assert point.relative_performance == pytest.approx(1.0, abs=0.02)

    def test_render_contains_plot_and_csv(self, figure9):
        text = figure9.render()
        assert "Figure 9" in text
        assert "program,memory,cache_bytes" in text


class TestTables11To13:
    def test_three_tables(self, tables11_13):
        assert {table.table_number for table in tables11_13.tables} == {11, 12, 13}

    def test_sweep_points_match_paper(self, tables11_13):
        assert DATA_MISS_RATES == (0.0, 0.02, 0.10, 0.25, 1.0)

    def test_data_cache_dilutes_ccrp_delta(self, tables11_13):
        """Paper: 'As the data cache miss rate increases, the effect of
        the CCRP on performance is reduced.'"""
        for table in tables11_13.tables:
            for memory in ("eprom", "burst_eprom"):
                rows = [row for row in table.rows if row.memory == memory]
                deltas = [abs(row.relative_performance - 1.0) for row in rows]
                assert deltas == sorted(deltas, reverse=True) or max(deltas) < 0.005

    def test_render(self, tables11_13):
        assert "Table 11" in tables11_13.render()


class TestAblations:
    @pytest.fixture(scope="class")
    def ablations(self):
        return run_ablations(programs=("espresso", "nasa7"))

    def test_lat_packing_saves_4x(self, ablations):
        for row in ablations.lat_rows:
            assert row.packed_overhead == pytest.approx(0.03125, abs=0.002)
            assert row.naive_overhead == pytest.approx(0.125, abs=0.002)

    def test_byte_alignment_compresses_better(self, ablations):
        for row in ablations.alignment_rows:
            assert row.byte_aligned_ratio <= row.word_aligned_ratio

    def test_faster_decoder_never_slower(self, ablations):
        for row in ablations.decoder_rows:
            assert (
                row.relative_performance[4]
                <= row.relative_performance[2] + 1e-9
                <= row.relative_performance[1] + 1e-9
            )

    def test_render_has_three_sections(self, ablations):
        text = ablations.render()
        assert "Ablation A" in text and "Ablation B" in text and "Ablation C" in text
