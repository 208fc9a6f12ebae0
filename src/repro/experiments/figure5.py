"""Figure 5 — four compression methods over the ten-program corpus.

For each program the paper reports the compressed size as a percentage of
the original for Unix ``compress``, Traditional Huffman, Bounded Huffman,
and Preselected Bounded Huffman, plus weighted averages over the whole
703 KB corpus.  Per-program Huffman variants are charged their 256-byte
canonical code listing; the preselected code is hard-wired and free; the
Huffman variants operate per 32-byte cache line with the bypass rule, as
in the CCRP proper (LAT overhead is reported separately, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.block import BlockCompressor
from repro.compression.histogram import byte_histogram
from repro.compression.huffman import HuffmanCode
from repro.compression.lzw import lzw_compressed_size
from repro.core.standard import standard_code
from repro.experiments.formats import percent, render_table
from repro.workloads.suite import FIGURE5_PROGRAMS, load_figure5_corpus

#: Bytes charged for storing a per-program canonical code listing.
CODE_TABLE_BYTES = 256


@dataclass(frozen=True)
class CompressionRow:
    """Figure 5 data for one program (ratios are fraction-of-original)."""

    program: str
    original_bytes: int
    unix_compress: float
    traditional_huffman: float
    bounded_huffman: float
    preselected_huffman: float


@dataclass(frozen=True)
class Figure5Result:
    """All rows plus the corpus-weighted average row."""

    rows: tuple[CompressionRow, ...]
    weighted: CompressionRow

    def render(self) -> str:
        headers = (
            "Program",
            "Bytes",
            "Unix compress",
            "Traditional Huffman",
            "Bounded Huffman",
            "Preselected Bounded",
        )
        table_rows = [
            (
                row.program,
                row.original_bytes,
                percent(row.unix_compress, 1),
                percent(row.traditional_huffman, 1),
                percent(row.bounded_huffman, 1),
                percent(row.preselected_huffman, 1),
            )
            for row in (*self.rows, self.weighted)
        ]
        return render_table(
            "Figure 5 - Four Compression Methods (size as % of original)",
            headers,
            table_rows,
        )


def _block_compressed_bytes(code: HuffmanCode, text: bytes, charge_table: bool) -> int:
    stored = int(BlockCompressor(code).stored_sizes(text).sum())
    return stored + (CODE_TABLE_BYTES if charge_table else 0)


def run_figure5(programs: tuple[str, ...] = FIGURE5_PROGRAMS) -> Figure5Result:
    """Compress each corpus program with all four methods."""
    corpus = load_figure5_corpus()
    preselected = standard_code()
    rows = []
    totals = {"original": 0, "lzw": 0, "traditional": 0, "bounded": 0, "preselected": 0}
    for name in programs:
        text = corpus[name]
        histogram = byte_histogram(text)
        traditional = HuffmanCode.from_frequencies(histogram)
        bounded = HuffmanCode.from_frequencies(histogram, max_length=16)
        lzw_bytes = lzw_compressed_size(text)
        traditional_bytes = _block_compressed_bytes(traditional, text, charge_table=True)
        bounded_bytes = _block_compressed_bytes(bounded, text, charge_table=True)
        preselected_bytes = _block_compressed_bytes(preselected, text, charge_table=False)
        rows.append(
            CompressionRow(
                program=name,
                original_bytes=len(text),
                unix_compress=lzw_bytes / len(text),
                traditional_huffman=traditional_bytes / len(text),
                bounded_huffman=bounded_bytes / len(text),
                preselected_huffman=preselected_bytes / len(text),
            )
        )
        totals["original"] += len(text)
        totals["lzw"] += lzw_bytes
        totals["traditional"] += traditional_bytes
        totals["bounded"] += bounded_bytes
        totals["preselected"] += preselected_bytes
    weighted = CompressionRow(
        program="Weighted Avg",
        original_bytes=totals["original"],
        unix_compress=totals["lzw"] / totals["original"],
        traditional_huffman=totals["traditional"] / totals["original"],
        bounded_huffman=totals["bounded"] / totals["original"],
        preselected_huffman=totals["preselected"] / totals["original"],
    )
    return Figure5Result(rows=tuple(rows), weighted=weighted)
