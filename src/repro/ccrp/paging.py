"""Compressed demand paging (paper Section 5, future work).

"The similarity of the CLB/LAT structure to the TLB/page table structure
indicates that there may be some benefit to implementing similar methods
for demand-paged virtual memory as well."

This module implements that proposal at simulation fidelity matching the
rest of the library: program pages are stored compressed in backing
memory (page table entries carry compressed base + length, like scaled-up
LAT entries), RAM holds a small set of decompressed page frames under
LRU, and a page fault costs the burst read of the *compressed* page plus
the decoder's fixed expansion rate.  The comparison against a machine
with uncompressed backing store shows the same bandwidth trade the cache
experiments show, one level down the hierarchy — and the storage saving
is the whole point.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.compression.huffman import HuffmanCode
from repro.memsys.models import MemoryModel, get_memory_model

#: Default page size: 1 KB suits small embedded RAM.
DEFAULT_PAGE_BYTES = 1024


@dataclass(frozen=True)
class CompressedPage:
    """One page in the compressed backing store."""

    index: int
    stored: bytes
    is_compressed: bool

    @property
    def stored_size(self) -> int:
        return len(self.stored)


class CompressedPageStore:
    """Backing store holding Huffman-compressed pages.

    Args:
        text: The program image to page.
        code: Huffman code shared with the page-expansion engine.
        page_bytes: Page size (power of two).
    """

    def __init__(
        self,
        text: bytes,
        code: HuffmanCode,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ConfigurationError(f"page size {page_bytes} is not a power of two")
        self.code = code
        self.page_bytes = page_bytes
        remainder = len(text) % page_bytes
        if remainder:
            text = text + bytes(page_bytes - remainder)
        self.original_size = len(text)
        self.pages: list[CompressedPage] = []
        for index in range(0, len(text), page_bytes):
            page = text[index : index + page_bytes]
            encoded, _ = code.encode(page)
            if len(encoded) >= page_bytes:
                self.pages.append(
                    CompressedPage(index // page_bytes, bytes(page), is_compressed=False)
                )
            else:
                self.pages.append(
                    CompressedPage(index // page_bytes, encoded, is_compressed=True)
                )

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def stored_size(self) -> int:
        """Backing-store bytes (page-table overhead excluded, as for LAT)."""
        return sum(page.stored_size for page in self.pages)

    @property
    def compression_ratio(self) -> float:
        return self.stored_size / self.original_size

    def read_page(self, index: int) -> bytes:
        """Decompress one page — the fault handler's data path."""
        page = self.pages[index]
        if not page.is_compressed:
            return page.stored
        return self.code.decode_fast(page.stored, self.page_bytes)


@dataclass(frozen=True)
class PagingResult:
    """Outcome of one paged simulation run."""

    references: int
    faults: int
    fault_cycles: int
    storage_bytes: int

    @property
    def fault_rate(self) -> float:
        return self.faults / self.references if self.references else 0.0


class PagedMemorySimulator:
    """LRU page-frame simulation over an address trace.

    Args:
        store: The compressed backing store (or ``None`` for the
            uncompressed baseline of the same geometry).
        frames: Number of RAM page frames.
        memory: Backing-memory timing model.
        decode_bytes_per_cycle: Page-expansion rate (the refill decoder,
            scaled up).
    """

    def __init__(
        self,
        store: CompressedPageStore,
        frames: int,
        memory: MemoryModel | str = "sc_dram",
        decode_bytes_per_cycle: int = 2,
    ) -> None:
        if frames < 1:
            raise ConfigurationError("need at least one page frame")
        self.store = store
        self.frames = frames
        self.memory = get_memory_model(memory)
        self.decode_bytes_per_cycle = decode_bytes_per_cycle

    # ------------------------------------------------------------------
    # Fault costs
    # ------------------------------------------------------------------

    def fault_cycles_for(self, page: CompressedPage) -> int:
        """Service time of one fault on the compressed machine."""
        words = -(-page.stored_size // 4)
        fetch = self.memory.burst_read_cycles(words)
        if not page.is_compressed:
            return fetch
        decode = self.memory.first_word_cycles + (
            self.store.page_bytes // self.decode_bytes_per_cycle
        )
        return max(fetch, decode)

    def baseline_fault_cycles(self) -> int:
        """Service time of one fault with uncompressed backing store."""
        return self.memory.burst_read_cycles(self.store.page_bytes // 4)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate(self, addresses: np.ndarray, compressed: bool = True) -> PagingResult:
        """Run the page-reference stream of ``addresses`` through LRU
        frames; price faults for the compressed or baseline machine."""
        shift = self.store.page_bytes.bit_length() - 1
        pages = np.asarray(addresses, dtype=np.int64) >> shift
        if len(pages):
            keep = np.empty(len(pages), dtype=bool)
            keep[0] = True
            np.not_equal(pages[1:], pages[:-1], out=keep[1:])
            events = pages[keep]
        else:
            events = pages
        resident: OrderedDict[int, None] = OrderedDict()
        faults = 0
        fault_cycles = 0
        baseline_cost = self.baseline_fault_cycles()
        for page_index in events.tolist():
            if page_index in resident:
                resident.move_to_end(page_index)
                continue
            faults += 1
            if compressed:
                fault_cycles += self.fault_cycles_for(self.store.pages[page_index])
            else:
                fault_cycles += baseline_cost
            if len(resident) >= self.frames:
                resident.popitem(last=False)
            resident[page_index] = None
        storage = self.store.stored_size if compressed else self.store.original_size
        return PagingResult(
            references=len(addresses),
            faults=faults,
            fault_cycles=fault_cycles,
            storage_bytes=storage,
        )

    def compare(self, addresses: np.ndarray) -> tuple[PagingResult, PagingResult]:
        """(compressed, baseline) results over the same reference stream."""
        return self.simulate(addresses, compressed=True), self.simulate(
            addresses, compressed=False
        )
