"""Dynamic instruction-address traces.

An :class:`ExecutionTrace` is the central artifact the cache simulators
consume — the equivalent of the pixie address traces the paper's
experiments were driven by.

Two backing representations exist:

* a flat ``uint32`` address array, one entry per executed instruction
  (what the per-instruction interpreter records directly), and
* a :class:`BlockTrace` — one event per executed *basic block* plus the
  per-block static address arrays, recorded by the superop engine.  The
  flat array is materialised lazily with vectorised numpy gathers, and
  aggregate queries (``execution_counts``, ``__len__``) are answered
  from block counts without materialising at all.

Both answer every query identically; the block form is simply much
cheaper to record and to aggregate over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class BlockTrace:
    """A dynamic trace stored as one event per executed basic block.

    Attributes:
        events: Block ids in execution order (``int32``), one entry per
            *block* execution rather than per instruction.
        block_addresses: For each block id, the static instruction byte
            addresses the block executes, in order (``uint32``).
        text_base: Load address of the program text segment.
        text_size: Text-segment size in bytes.
    """

    events: np.ndarray
    block_addresses: tuple[np.ndarray, ...]
    text_base: int
    text_size: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def block_lengths(self) -> np.ndarray:
        """Instructions per block id (``int64``)."""
        lengths = self._cache.get("lengths")
        if lengths is None:
            lengths = np.array(
                [len(addresses) for addresses in self.block_addresses], dtype=np.int64
            )
            self._cache["lengths"] = lengths
        return lengths

    def __len__(self) -> int:
        """Total dynamic instruction count, without materialising."""
        if len(self.events) == 0:
            return 0
        return int(self.block_lengths[self.events].sum())

    def materialize_addresses(self) -> np.ndarray:
        """The flat per-instruction address stream, gathered vectorised.

        Equivalent to concatenating ``block_addresses[e]`` for every
        event ``e`` — but built with ``np.repeat`` index arithmetic and
        one fancy-indexed gather instead of a Python loop.
        """
        if len(self.events) == 0:
            return np.empty(0, dtype=np.uint32)
        lengths = self.block_lengths
        if len(self.block_addresses) == 0:
            return np.empty(0, dtype=np.uint32)
        flat = np.concatenate(
            [addresses.astype(np.uint32, copy=False) for addresses in self.block_addresses]
        )
        offsets = np.zeros(len(lengths), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        event_lengths = lengths[self.events]
        event_starts = offsets[self.events]
        total = int(event_lengths.sum())
        out_starts = np.zeros(len(event_lengths), dtype=np.int64)
        np.cumsum(event_lengths[:-1], out=out_starts[1:])
        gather = (
            np.arange(total, dtype=np.int64)
            - np.repeat(out_starts, event_lengths)
            + np.repeat(event_starts, event_lengths)
        )
        return flat[gather]

    def execution_counts(self, text_words: int) -> np.ndarray:
        """Per-static-instruction execution counts from block counts.

        One ``bincount`` over the (short) event stream weighs each
        block; the per-block address arrays then scatter that weight
        onto the static instructions — no per-instruction pass.
        """
        counts = np.zeros(text_words, dtype=np.int64)
        if len(self.events) == 0:
            return counts
        event_counts = np.bincount(self.events, minlength=len(self.block_addresses))
        base = np.int64(self.text_base)
        for block_id, weight in enumerate(event_counts):
            if weight:
                indices = (self.block_addresses[block_id].astype(np.int64) - base) >> 2
                counts[indices] += weight  # addresses within a block are unique
        return counts


class ExecutionTrace:
    """Dynamic instruction addresses from one program execution.

    Attributes:
        addresses: Instruction byte addresses in execution order
            (``uint32``), one entry per executed instruction.  With a
            block backing this materialises lazily on first access.
        text_base: Load address of the program text segment.
        text_size: Text-segment size in bytes.
        blocks: The compact :class:`BlockTrace` backing, or ``None``
            when the trace was recorded per instruction.
    """

    def __init__(
        self,
        addresses: np.ndarray | None = None,
        text_base: int = 0,
        text_size: int = 0,
        blocks: BlockTrace | None = None,
    ) -> None:
        if addresses is None and blocks is None:
            raise ValueError("an ExecutionTrace needs addresses or a BlockTrace")
        if addresses is not None and addresses.dtype != np.uint32:
            addresses = addresses.astype(np.uint32)
        self._addresses = addresses
        self.text_base = text_base
        self.text_size = text_size
        self.blocks = blocks

    # ------------------------------------------------------------------
    # Pickling (artifact cache stores traces inside ExecutionResults)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "addresses": self._addresses,
            "text_base": self.text_base,
            "text_size": self.text_size,
            "blocks": self.blocks,
        }

    def __setstate__(self, state: dict) -> None:
        self._addresses = state.get("addresses")
        self.text_base = state["text_base"]
        self.text_size = state["text_size"]
        self.blocks = state.get("blocks")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "blocks" if self._addresses is None else "flat"
        return (
            f"ExecutionTrace(len={len(self)}, text_base={self.text_base:#x}, "
            f"text_size={self.text_size}, backing={backing!r})"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def addresses(self) -> np.ndarray:
        if self._addresses is None:
            self._addresses = self.blocks.materialize_addresses()
        return self._addresses

    def __len__(self) -> int:
        if self._addresses is None:
            return len(self.blocks)
        return len(self._addresses)

    @property
    def instruction_indices(self) -> np.ndarray:
        """Per-access static instruction index (word offset into text)."""
        return (self.addresses - np.uint32(self.text_base)) >> np.uint32(2)

    def line_addresses(self, line_size: int = 32) -> np.ndarray:
        """Cache-line numbers touched by each access, in order."""
        shift = line_size.bit_length() - 1
        if 1 << shift != line_size:
            raise ValueError(f"line size {line_size} is not a power of two")
        return self.addresses >> np.uint32(shift)

    def execution_counts(self, text_words: int | None = None) -> np.ndarray:
        """How many times each static instruction executed.

        Args:
            text_words: Length of the returned histogram; defaults to the
                number of words in the text segment.
        """
        if text_words is None:
            text_words = self.text_size // 4
        if self._addresses is None:
            return self.blocks.execution_counts(text_words)
        return np.bincount(self.instruction_indices, minlength=text_words)
