"""Instruction-memory timing models.

The paper models three memory implementations against a 40 ns processor
cycle (Section 4.2.1):

* **EPROM** — standard ~100 ns EPROMs; every word read costs 3 cycles.
* **Burst EPROM** — 3 cycles for the first word of a burst, 1 for each
  subsequent word.
* **Static-Column DRAM** — 4 cycles for the first word, 1 per subsequent
  word, plus a 2-cycle precharge after each burst during which the memory
  cannot be accessed (70 ns 4 Mbit parts).

Burst page-boundary crossings are not penalised, matching the paper's
stated simplification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MemoryModel:
    """Cycle-level timing of one instruction-memory implementation.

    A "word" here is one bus transfer (beat).  The paper's system has a
    single 32-bit bus (``bus_bytes = 4``); the Section 3.4/5 discussion of
    64- and 128-bit embedded buses is modelled by widening ``bus_bytes``
    while keeping the per-beat latencies — see
    :meth:`with_bus_bytes` and the ``bus-width`` experiment.

    Attributes:
        name: Identifier used in configs and reports.
        first_word_cycles: Latency of the first beat of a burst.
        next_word_cycles: Latency of each subsequent beat in the burst.
        post_burst_cycles: Dead cycles after a burst completes (DRAM
            precharge); charged once per burst.
        bus_bytes: Bytes delivered per beat (bus width).
    """

    name: str
    first_word_cycles: int
    next_word_cycles: int
    post_burst_cycles: int = 0
    bus_bytes: int = 4

    def __post_init__(self) -> None:
        if self.first_word_cycles < 1 or self.next_word_cycles < 1:
            raise ConfigurationError("word latencies must be at least one cycle")
        if self.post_burst_cycles < 0:
            raise ConfigurationError("post-burst penalty cannot be negative")
        if self.bus_bytes < 1 or self.bus_bytes & (self.bus_bytes - 1):
            raise ConfigurationError(f"bus width {self.bus_bytes} is not a power of two")

    def word_arrival_times(self, words: int) -> list[int]:
        """Cycle at which each of ``words`` sequential beats is available."""
        if words < 1:
            raise ConfigurationError(f"a burst needs at least one word, got {words}")
        times = [self.first_word_cycles]
        for _ in range(words - 1):
            times.append(times[-1] + self.next_word_cycles)
        return times

    def burst_read_cycles(self, words: int) -> int:
        """Total bus occupancy of a ``words``-beat burst, incl. precharge."""
        return self.word_arrival_times(words)[-1] + self.post_burst_cycles

    def beats_for_bytes(self, size: int) -> int:
        """Bus beats needed to transfer ``size`` bytes."""
        if size < 1:
            raise ConfigurationError(f"transfer size must be positive, got {size}")
        return -(-size // self.bus_bytes)

    def bytes_read_cycles(self, size: int) -> int:
        """Burst time for ``size`` bytes at this bus width."""
        return self.burst_read_cycles(self.beats_for_bytes(size))

    def byte_arrival_times(self, size: int) -> list[int]:
        """Arrival cycle of each *byte* of a ``size``-byte burst."""
        beats = self.word_arrival_times(self.beats_for_bytes(size))
        return [beats[index // self.bus_bytes] for index in range(size)]

    def with_bus_bytes(self, bus_bytes: int) -> "MemoryModel":
        """The same memory array behind a wider (or narrower) bus."""
        return MemoryModel(
            name=f"{self.name}x{bus_bytes * 8}",
            first_word_cycles=self.first_word_cycles,
            next_word_cycles=self.next_word_cycles,
            post_burst_cycles=self.post_burst_cycles,
            bus_bytes=bus_bytes,
        )


#: Standard EPROM: non-burst, 3 cycles per word.
EPROM = MemoryModel(name="eprom", first_word_cycles=3, next_word_cycles=3)

#: Burst-mode EPROM: 3-1-1-1-…
BURST_EPROM = MemoryModel(name="burst_eprom", first_word_cycles=3, next_word_cycles=1)

#: Static-column DRAM: 4-1-1-1-… plus 2-cycle precharge per burst.
SC_DRAM = MemoryModel(
    name="sc_dram", first_word_cycles=4, next_word_cycles=1, post_burst_cycles=2
)

#: All models, by name.
MEMORY_MODELS: dict[str, MemoryModel] = {
    model.name: model for model in (EPROM, BURST_EPROM, SC_DRAM)
}


def get_memory_model(name: str | MemoryModel) -> MemoryModel:
    """Resolve a model by name (pass-through for model instances)."""
    if isinstance(name, MemoryModel):
        return name
    try:
        return MEMORY_MODELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown memory model {name!r}; choose from {sorted(MEMORY_MODELS)}"
        ) from None
