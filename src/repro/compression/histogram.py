"""Byte-frequency histograms.

Huffman code construction starts from a frequency-of-occurrence histogram
of program bytes (paper, Section 2.2).  The preselected code merges the
histograms of an entire program corpus.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np


def byte_histogram(data: bytes) -> list[int]:
    """Occurrence count of each byte value 0-255 in ``data``."""
    return np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256).tolist()


def merge_histograms(histograms: Iterable[list[int]]) -> list[int]:
    """Element-wise sum of several byte histograms."""
    merged = np.zeros(256, dtype=np.int64)
    for histogram in histograms:
        if len(histogram) != 256:
            raise ValueError(f"histogram must have 256 entries, got {len(histogram)}")
        merged += np.asarray(histogram, dtype=np.int64)
    return merged.tolist()


def corpus_histogram(programs: Iterable[bytes]) -> list[int]:
    """Merged byte histogram of a program corpus (for preselected codes)."""
    return merge_histograms(byte_histogram(program) for program in programs)
