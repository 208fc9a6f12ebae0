"""Cross-ISA effectiveness (paper Section 5's first proposed experiment).

"One such experiment is to measure the effectiveness of this method on
instruction sets other than MIPS."

The corpus is re-encoded into the A32-like layout of
:mod:`repro.isa.altisa` and three preselected bounded Huffman codes are
compared on it and on the original MIPS encoding:

* each ISA with its own corpus-trained code (the deployment the paper
  intends — the decoder is wired per architecture);
* each ISA with the *other* ISA's code (what happens if the hard-wired
  decoder does not match the architecture).

The expected result, which ``tests/test_cross_isa.py`` asserts: both
ISAs compress to a similar band with their own code — the CCRP
generalises — while cross-trained codes lose several points, confirming
that the preselected code is an architecture-specific artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.block import BlockCompressor
from repro.compression.huffman import HuffmanCode
from repro.compression.preselected import build_preselected_code
from repro.experiments.formats import percent, render_table
from repro.isa.altisa import reencode_program
from repro.workloads.suite import FIGURE5_PROGRAMS, load_figure5_corpus


@dataclass(frozen=True)
class CrossISARow:
    program: str
    original_bytes: int
    mips_own_code: float  # MIPS bytes, MIPS-trained code
    alt_own_code: float  # A32-like bytes, A32-trained code
    mips_with_alt_code: float  # mismatch: MIPS bytes, A32-trained code
    alt_with_mips_code: float  # mismatch: A32-like bytes, MIPS-trained code


@dataclass(frozen=True)
class CrossISAResult:
    rows: tuple[CrossISARow, ...]
    weighted: CrossISARow

    def render(self) -> str:
        table = render_table(
            "Cross-ISA preselected-code effectiveness (size as % of original)",
            (
                "Program",
                "Bytes",
                "MIPS/own",
                "A32-like/own",
                "MIPS/alt code",
                "A32-like/MIPS code",
            ),
            [
                (
                    row.program,
                    row.original_bytes,
                    percent(row.mips_own_code, 1),
                    percent(row.alt_own_code, 1),
                    percent(row.mips_with_alt_code, 1),
                    percent(row.alt_with_mips_code, 1),
                )
                for row in (*self.rows, self.weighted)
            ],
        )
        return table + (
            "\n\nBoth ISAs sit in the same band with their own trained code"
            "\n(the CCRP idea generalises); swapping codes across ISAs costs"
            "\nseveral points (the preselected code is per-architecture)."
        )


def _ratio(code: HuffmanCode, text: bytes) -> float:
    blocks = BlockCompressor(code).compress_program(text)
    return sum(block.stored_size for block in blocks) / len(text)


def run_cross_isa(programs: tuple[str, ...] = FIGURE5_PROGRAMS) -> CrossISAResult:
    """Run the cross-ISA comparison over the Figure 5 corpus."""
    corpus = load_figure5_corpus()
    mips_texts = {name: corpus[name] for name in programs}
    alt_texts = {name: reencode_program(text) for name, text in mips_texts.items()}

    mips_code = build_preselected_code(mips_texts.values())
    alt_code = build_preselected_code(alt_texts.values())

    rows = []
    totals = [0, 0.0, 0.0, 0.0, 0.0]
    for name in programs:
        mips_text, alt_text = mips_texts[name], alt_texts[name]
        row = CrossISARow(
            program=name,
            original_bytes=len(mips_text),
            mips_own_code=_ratio(mips_code, mips_text),
            alt_own_code=_ratio(alt_code, alt_text),
            mips_with_alt_code=_ratio(alt_code, mips_text),
            alt_with_mips_code=_ratio(mips_code, alt_text),
        )
        rows.append(row)
        totals[0] += len(mips_text)
        totals[1] += row.mips_own_code * len(mips_text)
        totals[2] += row.alt_own_code * len(mips_text)
        totals[3] += row.mips_with_alt_code * len(mips_text)
        totals[4] += row.alt_with_mips_code * len(mips_text)
    weighted = CrossISARow(
        program="Weighted Avg",
        original_bytes=totals[0],
        mips_own_code=totals[1] / totals[0],
        alt_own_code=totals[2] / totals[0],
        mips_with_alt_code=totals[3] / totals[0],
        alt_with_mips_code=totals[4] / totals[0],
    )
    return CrossISAResult(rows=tuple(rows), weighted=weighted)
