"""Cache refill timing for both machine models.

The :class:`RefillEngine` precomputes, for one compressed image and one
memory model, the refill cost of every static cache line — the CCRP side
uses the decoder model per line, the baseline side is a constant 8-word
burst.  Miss streams from the cache simulator then reduce to cycle totals
with one vectorised gather.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.ccrp.decoder import DecoderModel
from repro.ccrp.image import CompressedImage
from repro.errors import LATError
from repro.lat.entry import ENTRY_BYTES
from repro.memsys.models import MemoryModel, get_memory_model


class RefillEngine:
    """Per-line refill costs for a compressed image under one memory model.

    Tables come from :meth:`DecoderModel.refill_cycles_table`, pinned in
    tests to the per-block :meth:`DecoderModel.refill_cycles` reference;
    an image with non-uniform compressed blocks raises
    :class:`~repro.errors.CompressionError`.

    Args:
        image: The compressed program.
        memory: Memory model (instance or name).
        decoder: Decoder timing model.
    """

    def __init__(
        self,
        image: CompressedImage,
        memory: MemoryModel | str,
        decoder: DecoderModel | None = None,
    ) -> None:
        self.image = image
        self.memory = get_memory_model(memory)
        self.decoder = decoder or DecoderModel()
        arrays = image.block_arrays()
        self._ccrp_cycles = self.decoder.refill_cycles_table(arrays, self.memory)
        bus = self.memory.bus_bytes
        self._fetched_bytes = -(-arrays.stored_sizes // bus) * bus
        self.baseline_refill_cycles = self.memory.bytes_read_cycles(image.line_size)

    # ------------------------------------------------------------------
    # Per-line views
    # ------------------------------------------------------------------

    @property
    def ccrp_refill_cycles(self) -> np.ndarray:
        """Refill cycles of each static line on the CCRP (CLB hit case)."""
        return self._ccrp_cycles

    @property
    def fetched_bytes_per_line(self) -> np.ndarray:
        """Bus bytes fetched to refill each static line on the CCRP."""
        return self._fetched_bytes

    @cached_property
    def line_tables(self) -> tuple[list[int], list[int]]:
        """:attr:`ccrp_refill_cycles` and :attr:`fetched_bytes_per_line` as
        lists of Python ints, for per-miss lookups (the prefetch core)."""
        return self._ccrp_cycles.tolist(), self._fetched_bytes.tolist()

    @property
    def lat_fetch_cycles(self) -> int:
        """Extra cycles a CLB miss adds: one 8-byte LAT-entry read."""
        return self.memory.bytes_read_cycles(ENTRY_BYTES)

    # ------------------------------------------------------------------
    # Miss-stream reductions
    # ------------------------------------------------------------------

    def _checked_indices(self, miss_line_indices) -> np.ndarray:
        """Validate a miss-index stream against the image's line count.

        Mirrors :meth:`~repro.ccrp.image.CompressedImage.line_index`:
        any index outside ``[0, line_count)`` raises
        :class:`~repro.errors.LATError` instead of wrapping around via
        numpy's negative indexing (the last line of the image,
        ``line_count - 1``, is of course valid).
        """
        indices = np.asarray(miss_line_indices, dtype=np.int64)
        if indices.ndim != 1:
            raise LATError(f"miss indices must be one-dimensional, got shape {indices.shape}")
        if len(indices) == 0:
            return indices
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= len(self._ccrp_cycles):
            bad = low if low < 0 else high
            raise LATError(
                f"line index {bad} outside image [0, {len(self._ccrp_cycles)})"
            )
        return indices

    def ccrp_line_cycles(self, miss_line_indices) -> np.ndarray:
        """Per-miss CCRP refill cycles (bounds-checked gather)."""
        indices = self._checked_indices(miss_line_indices)
        return self._ccrp_cycles[indices]

    def ccrp_miss_cycles(self, miss_line_indices) -> int:
        """Total CCRP refill cycles for a stream of missed line indices
        (CLB penalties excluded; add ``clb_misses * lat_fetch_cycles``).

        An empty stream costs zero; out-of-range indices raise
        :class:`~repro.errors.LATError`.
        """
        indices = self._checked_indices(miss_line_indices)
        if len(indices) == 0:
            return 0
        return int(self._ccrp_cycles[indices].sum())

    def baseline_miss_cycles(self, miss_count: int) -> int:
        """Total baseline refill cycles for ``miss_count`` misses."""
        if miss_count < 0:
            raise LATError(f"miss count cannot be negative, got {miss_count}")
        return miss_count * self.baseline_refill_cycles

    def ccrp_fetched_bytes(self, miss_line_indices) -> int:
        """Bus bytes the CCRP fetched for these misses (blocks only).

        Same contract as :meth:`ccrp_miss_cycles`: empty streams cost
        zero, out-of-range indices raise :class:`~repro.errors.LATError`.
        """
        indices = self._checked_indices(miss_line_indices)
        if len(indices) == 0:
            return 0
        return int(self._fetched_bytes[indices].sum())
