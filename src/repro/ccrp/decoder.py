"""Refill-decoder timing model (paper Section 3.4).

The hard-wired Huffman decoder produces two decoded bytes per processor
cycle (one per clock edge) from a 16-bit decode buffer that refills from
the incoming memory words.  "The minimum time required to decode a 32-byte
cache line is therefore 16 processor cycles plus the time to read the
first word.  If the main memory is slow, the refill engine may have to
wait."

Two fidelity levels are provided:

* the **paper model** (default, ``detailed=False``) — exactly the formula
  above: a compressed refill completes at
  ``max(first_word + line_bytes/rate, fetch_end)``; decode fully overlaps
  the fetch burst.
* the **detailed model** (``detailed=True``) — replays the line's true
  per-byte code lengths against word-arrival times: output byte *j*
  completes half a cycle after both its predecessor and the memory word
  holding its last encoded bit.  On slow memories this exposes a small
  end-of-line stall (the final word's symbols still have to shift through
  the decoder) that the paper's closed form ignores; the ablation
  experiment quantifies the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.compression.block import BlockArrays, CompressedBlock
from repro.memsys.models import MemoryModel

#: Bus width in bytes (the paper's single 32-bit data bus).
WORD_BYTES = 4


@dataclass(frozen=True)
class DecoderModel:
    """Timing of the hard-wired Huffman refill decoder.

    Attributes:
        bytes_per_cycle: Decoded output bytes per processor cycle (2 in
            the paper: one byte per clock edge).  The decode-rate ablation
            sweeps 1, 2, and 4.
        detailed: Use the bit-exact stall model instead of the paper's
            closed form (see module docstring).
    """

    bytes_per_cycle: int = 2
    detailed: bool = False

    def __post_init__(self) -> None:
        if self.bytes_per_cycle < 1:
            raise ConfigurationError("decoder must produce at least 1 byte/cycle")

    def refill_cycles(self, block: CompressedBlock, memory: MemoryModel) -> int:
        """Cycles from refill start until the full line is expanded.

        Bypass blocks skip the decoder: their refill is a plain 8-word
        burst read.  Compressed blocks interleave word arrivals with the
        fixed decode rate.
        """
        if not block.is_compressed:
            return memory.bytes_read_cycles(len(block.data))
        if self.detailed:
            return self._detailed_refill_cycles(block, memory)
        line_bytes = len(block.symbol_bits)
        decode_done = memory.first_word_cycles + math.ceil(
            line_bytes / self.bytes_per_cycle
        )
        return max(decode_done, memory.bytes_read_cycles(len(block.data)))

    def _detailed_refill_cycles(self, block: CompressedBlock, memory: MemoryModel) -> int:
        """Exact replay of the decode/arrival interleave, in integer time.

        Working in units of one decode step (``1/rate`` cycles) keeps the
        recurrence ``finished = max(finished, available) + step`` in
        integers, so long or degenerate lines cannot drift the way the
        old float accumulation (guarded by a ``1e-9`` epsilon) could.
        """
        arrivals = memory.byte_arrival_times(len(block.data))
        rate = self.bytes_per_cycle
        finished_steps = 0  # time in 1/rate-cycle units
        bits_consumed = 0
        for symbol_bits in block.symbol_bits:
            bits_consumed += symbol_bits
            input_byte = -(-bits_consumed // 8)  # ceil: last input byte needed
            available = arrivals[input_byte - 1]
            finished_steps = max(finished_steps, available * rate) + 1
        decode_done = -(-finished_steps // rate)
        # DRAM precharge after the fetch burst can outlast the tail of the
        # decode; the refill engine owns the bus either way.
        burst_done = arrivals[-1] + memory.post_burst_cycles
        return max(decode_done, burst_done)

    def refill_cycles_table(self, arrays: BlockArrays, memory: MemoryModel) -> np.ndarray:
        """Vectorized :meth:`refill_cycles` over a whole block sequence.

        One pass of numpy array arithmetic replaces the per-block loop
        (and, for the detailed model, the per-symbol inner loop): byte
        arrivals come straight from the cumulative symbol-bit matrix, and
        the detailed max-plus recurrence collapses to its closed form

        ``finished_m = max_j(available_j * rate - j) + m + 1``  (in
        ``1/rate``-cycle units, ``j`` 1-based)

        because each step adds exactly one unit after clamping to the
        arrival time.  Property tests pin every entry to the scalar
        :meth:`refill_cycles` across memory models and fidelities.
        """
        sizes = arrays.stored_sizes
        first = memory.first_word_cycles
        nxt = memory.next_word_cycles
        bus = memory.bus_bytes
        # bytes_read_cycles(size) for every block in one expression.
        fetch_done = first + (-(-sizes // bus) - 1) * nxt + memory.post_burst_cycles
        cycles = fetch_done.copy()
        compressed = arrays.compressed
        if not compressed.any():
            return cycles
        line_bytes = arrays.symbol_bits.shape[1]
        rate = self.bytes_per_cycle
        if not self.detailed:
            decode_done = first + -(-line_bytes // rate)
            cycles[compressed] = np.maximum(decode_done, fetch_done[compressed])
            return cycles
        bits_consumed = np.cumsum(arrays.symbol_bits, axis=1, dtype=np.int64)
        input_byte = (bits_consumed + 7) >> 3
        available = first + ((input_byte - 1) // bus) * nxt
        slack = available * rate - np.arange(1, line_bytes + 1, dtype=np.int64)
        finished_steps = slack.max(axis=1) + line_bytes + 1
        decode_done = -(-finished_steps // rate)
        cycles[compressed] = np.maximum(decode_done, fetch_done[compressed])
        return cycles

    def minimum_cycles(self, line_size: int, memory: MemoryModel) -> int:
        """The paper's floor: line_size / rate + first word access."""
        return line_size // self.bytes_per_cycle + memory.first_word_cycles
