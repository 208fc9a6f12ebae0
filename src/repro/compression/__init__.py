"""Compression substrate: the paper's four codecs plus block bounding.

The paper evaluates (Figure 5):

* Unix ``compress`` (LZW) — whole-file reference point,
* Traditional Huffman — per-program byte Huffman, unbounded code length,
* Bounded Huffman — per-program, no code longer than 16 bits,
* Preselected Bounded Huffman — one 16-bit-bounded code trained on a
  ten-program corpus and hard-wired into the decoder.

:mod:`repro.compression.block` applies any Huffman code to individual
32-byte cache lines with the paper's bypass rule (a line that does not
compress is stored verbatim), producing the per-line blocks the LAT
indexes.
"""

from repro.compression.bitstream import BitWriter
from repro.compression.block import BlockCompressor, CompressedBlock
from repro.compression.histogram import byte_histogram, merge_histograms
from repro.compression.huffman import HuffmanCode
from repro.compression.lzw import lzw_compress, lzw_decompress
from repro.compression.multicode import MultiCodeCompressor, train_code_set
from repro.compression.preselected import build_preselected_code

__all__ = [
    "BitWriter",
    "BlockCompressor",
    "CompressedBlock",
    "HuffmanCode",
    "MultiCodeCompressor",
    "build_preselected_code",
    "byte_histogram",
    "lzw_compress",
    "lzw_decompress",
    "merge_histograms",
    "train_code_set",
]
