"""The prefetching refill engine: policies, accounting, the per-miss core.

Model
-----

The paper charges every instruction-cache miss the *full* sequential
Huffman decompression latency.  A real front end would overlap most of
that with execution: while the pipeline executes the line it just
fetched, the refill engine can speculatively start decompressing the
lines fetch is likely to want next.  This module models that overlap
with three selectable policies:

* ``demand`` — today's behaviour, bit-for-bit: misses freeze the
  pipeline for the full refill (plus a LAT read on a CLB miss);
* ``nextline`` — each miss to line *L*, once serviced, starts a
  speculative refill of the fall-through line *L + 1*;
* ``btb`` — next-line plus a second probe of a small branch-target
  buffer (:class:`~repro.prefetch.predictor.StaticBTB`): if a control
  transfer in *L* redirects fetch to a known line, that line is
  prefetched too.

The shadow clock
----------------

Prefetch timing needs a notion of *when* a later demand miss arrives
relative to the speculative decode it may hit.  The engine keeps a
**shadow clock** in the fetch domain: every fetch advances it one cycle
(the IF slot) and every fetch freeze advances it by the stall.  Hazard
and branch stalls are deliberately *not* counted — the decoder gets
strictly less shadow time than it really would, so the hiding the model
reports is a lower bound (documented in ``docs/modeling_notes.md`` §15).

A demand miss that hits a prefetch-buffer entry pays only the
**residual**: ``max(0, finish_time - now)``, zero if the speculative
decode finished in the shadow of execution.  If the residual exceeds
what a fresh demand decode would cost (the prefetch is still queued
behind others on the single decoder port), the front end abandons it and
decodes on demand — so a covered miss never costs more than an uncovered
one.  Wrong-path prefetches are charged honestly: their bus/LAT traffic
is accounted, their buffer slot evicts under pressure, and with
``contention=True`` an in-flight speculative decode makes a demand miss
wait for the shared decoder port.

Cache semantics are untouched: prefetched lines sit in a bounded FIFO
side-buffer (the classic stream-buffer arrangement), a buffer
hit still counts as a cache miss and fills the cache exactly as demand
would, so the miss stream is identical across policies — the property
the vectorized timeline (:mod:`repro.prefetch.timeline`) builds on.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.ccrp.clb import CLB
from repro.ccrp.refill import RefillEngine
from repro.errors import ConfigurationError
from repro.lat.entry import ENTRY_BYTES, LINES_PER_ENTRY
from repro.memsys.models import MemoryModel
from repro.prefetch.predictor import StaticBTB

#: The selectable fetch policies.
FETCH_POLICIES = ("demand", "nextline", "btb")


@dataclass(frozen=True)
class FetchReplay:
    """Everything one fetch-path replay produced, backend-agnostic.

    Instances compare equal field-for-field when two replays agree —
    the check the tests run against the per-access reference walk in
    ``tests/fetch_oracle.py``.

    Attributes:
        policy: Fetch policy that produced the numbers.
        accesses / misses: Fetch and cache-miss counts.
        fetch_stall_cycles: Total front-end freeze cycles.
        clb_penalty_cycles: The demand-charged LAT-read share of the
            stalls (speculative LAT reads are hidden, not freezes).
        clb_hits / clb_misses: CLB probe outcomes (demand + prefetch).
        traffic_bytes: Instruction-memory bytes fetched (blocks + LAT).
        issued / useful / useless / partial: Prefetch outcome counters
            (``issued == useful + useless + in_flight_at_exit``;
            ``partial`` is the subset of ``useful`` with a nonzero
            residual).
        in_flight_at_exit: Prefetches still buffered at end of trace.
        covered_stall_cycles: Demand-freeze cycles the prefetcher hid.
        wasted_traffic_bytes: Bytes fetched by prefetches that were
            evicted or abandoned without covering a miss.
    """

    policy: str
    accesses: int
    misses: int
    fetch_stall_cycles: int
    clb_penalty_cycles: int
    clb_hits: int
    clb_misses: int
    traffic_bytes: int
    issued: int
    useful: int
    useless: int
    partial: int
    in_flight_at_exit: int
    covered_stall_cycles: int
    wasted_traffic_bytes: int

    def prefetch_counters(self) -> dict[str, int]:
        """The prefetch counter block (for metrics reports)."""
        return {
            "issued": self.issued,
            "useful": self.useful,
            "useless": self.useless,
            "partial": self.partial,
            "in_flight_at_exit": self.in_flight_at_exit,
            "covered_stall_cycles": self.covered_stall_cycles,
            "wasted_traffic_bytes": self.wasted_traffic_bytes,
        }

    @classmethod
    def from_core(
        cls, core, accesses: int, misses: int, stalls: int
    ) -> "FetchReplay":
        """Snapshot a :class:`~repro.prefetch.engine.PrefetchCore`."""
        return cls(
            policy=core.policy,
            accesses=accesses,
            misses=misses,
            fetch_stall_cycles=stalls,
            clb_penalty_cycles=core.clb_penalty_cycles,
            clb_hits=core.clb_hits,
            clb_misses=core.clb_misses,
            traffic_bytes=core.traffic_bytes,
            issued=core.issued,
            useful=core.useful,
            useless=core.useless,
            partial=core.partial,
            in_flight_at_exit=core.in_flight_at_exit,
            covered_stall_cycles=core.covered_stall_cycles,
            wasted_traffic_bytes=core.wasted_traffic_bytes,
        )


def validate_fetch_policy(name: str) -> str:
    """Check a fetch-policy name, raising :class:`ConfigurationError`."""
    if name not in FETCH_POLICIES:
        raise ConfigurationError(
            f"unknown fetch policy {name!r}; choose from {FETCH_POLICIES}"
        )
    return name


class _Uniform:
    """A per-line table with the same entry for every line (the standard
    machine's full-line burst, which has no image to bound it)."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __getitem__(self, index: int) -> int:
        return self.value


class PrefetchCore:
    """The per-miss state machine of the prefetching fetch path.

    The vectorized timeline
    (:func:`repro.prefetch.timeline.simulate_fetch_stream`) drives it
    over the extracted miss events with arrival times computed by
    vectorized position arithmetic; the tests' per-access reference walk
    drives the same core with a shadow clock advanced one access at a
    time, so their agreement reduces to the (property-tested)
    equivalence of the two clock constructions.

    The prefetch buffer is :attr:`buffer`, an ordered map from global
    line to the shadow-clock cycle its speculative decode finishes,
    oldest first: inserting into a full buffer evicts the oldest entry
    (a useless prefetch), and a demand miss pops its own line.

    Args:
        policy: One of :data:`FETCH_POLICIES`.
        depth: Prefetch-buffer capacity (speculative refills in flight
            or complete).
        line_cycles: Full refill cycles of each line, indexed by global
            line minus ``base_line`` (a list: one lookup per miss).
        line_bytes: Bus bytes a refill of each line fetches, same index.
        base_line / line_count: The global lines that may be prefetched
            (inside the image / text segment).
        clb: CLB probed by demand *and* speculative refills (shared
            structure, so prefetch probes train and pollute it exactly
            as hardware would); ``None`` models a perfect CLB.
        lat_penalty: Cycles of one LAT-entry read (charged on CLB miss).
        btb: Branch-target predictor (``btb`` policy only).
        contention: Model a single shared decoder port — demand decodes
            wait for in-flight speculative decodes.  Off by default (the
            optimistic dual-port assumption the invariant tests pin).
    """

    def __init__(
        self,
        policy: str,
        depth: int,
        line_cycles: Sequence[int],
        line_bytes: Sequence[int],
        base_line: int,
        line_count: int,
        clb: CLB | None = None,
        lat_penalty: int = 0,
        btb: StaticBTB | None = None,
        contention: bool = False,
    ) -> None:
        validate_fetch_policy(policy)
        if policy == "btb" and btb is None:
            raise ConfigurationError("the btb policy needs a branch-target buffer")
        if depth < 1:
            raise ConfigurationError(
                f"prefetch buffer needs at least one entry, got {depth}"
            )
        self.policy = policy
        self.depth = depth
        self.buffer: OrderedDict[int, int] = OrderedDict()
        self._line_cycles = line_cycles
        self._line_bytes = line_bytes
        self._base_line = base_line
        self._line_count = line_count
        self.clb = clb
        self.lat_penalty = lat_penalty
        self.btb = btb
        self._predict_target = btb.predict if policy == "btb" else None
        self.contention = contention
        self._decoder_free = 0
        self.issued = 0
        self.useful = 0
        self.useless = 0
        self.partial = 0
        self.covered_stall_cycles = 0
        self.clb_penalty_cycles = 0
        self.traffic_bytes = 0
        self.wasted_traffic_bytes = 0

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------

    def on_miss(self, now: int, line: int, is_resident: Callable[[int], bool]) -> int:
        """Service one demand miss at shadow time ``now``; returns stall.

        ``is_resident`` answers whether a *predicted* line is already in
        the instruction cache (such prefetches are suppressed); the
        caller updates the cache with the missing line itself, exactly
        as the demand policy would.
        """
        buffer = self.buffer
        cycles = self._line_cycles
        fetched = self._line_bytes
        base = self._base_line
        clb = self.clb
        finish = buffer.pop(line, None)
        index = line - base
        demand_cost = cycles[index]
        if clb is not None and not clb.access(line // LINES_PER_ENTRY):
            self.traffic_bytes += ENTRY_BYTES
            self.clb_penalty_cycles += self.lat_penalty
            demand_cost += self.lat_penalty
        if finish is not None and finish - now <= demand_cost:
            # Covered (fully or partially): pay only what is left of the
            # speculative decode; the line's bytes were already fetched
            # at issue, so no new line traffic.
            stall = finish - now if finish > now else 0
            self.useful += 1
            if stall:
                self.partial += 1
            self.covered_stall_cycles += demand_cost - stall
        else:
            if finish is not None:
                # Still queued behind other speculative work: abandon it
                # and decode on demand (a covered miss never costs more
                # than an uncovered one).  Its fetch was wasted traffic.
                self.useless += 1
                self.wasted_traffic_bytes += fetched[index]
            stall = demand_cost
            if self.contention:
                if self._decoder_free > now:
                    stall += self._decoder_free - now
                self._decoder_free = now + stall
            self.traffic_bytes += fetched[index]
        if self.policy == "demand":
            return stall

        # Start speculative refills of the predicted lines once the
        # demand miss completes: the fall-through line, then (btb) the
        # line a control transfer in this one redirects fetch to.
        done = now + stall
        predictions: tuple[int, ...] = (line + 1,)
        if self._predict_target is not None:
            target = self._predict_target(line)
            if target is not None and target != line and target != line + 1:
                predictions = (line + 1, target)
        for predicted in predictions:
            index = predicted - base
            if not 0 <= index < self._line_count:
                continue
            if predicted in buffer or is_resident(predicted):
                continue
            duration = cycles[index]
            if clb is not None and not clb.access(predicted // LINES_PER_ENTRY):
                self.traffic_bytes += ENTRY_BYTES
                duration += self.lat_penalty
            start = done if done > self._decoder_free else self._decoder_free
            self._decoder_free = start + duration
            self.traffic_bytes += fetched[index]
            self.issued += 1
            if len(buffer) >= self.depth:
                evicted, _ = buffer.popitem(last=False)
                self.useless += 1
                self.wasted_traffic_bytes += fetched[evicted - base]
            buffer[predicted] = start + duration
        return stall

    # ------------------------------------------------------------------
    # Accounting views
    # ------------------------------------------------------------------

    @property
    def in_flight_at_exit(self) -> int:
        """Issued prefetches still sitting in the buffer."""
        return len(self.buffer)

    @property
    def clb_hits(self) -> int:
        return self.clb.hits if self.clb is not None else 0

    @property
    def clb_misses(self) -> int:
        return self.clb.misses if self.clb is not None else 0



def build_core(
    policy: str,
    depth: int,
    memory: MemoryModel,
    line_size: int,
    refill: RefillEngine | None = None,
    clb: CLB | None = None,
    btb: StaticBTB | None = None,
    contention: bool = False,
    prefetch_bounds: tuple[int, int] | None = None,
) -> PrefetchCore:
    """Configure a :class:`PrefetchCore` for one machine model.

    The timeline and the tests' reference walk build their core here,
    so the per-line cost and validity rules cannot drift between them.
    A CCRP core reads the refill engine's
    :attr:`~repro.ccrp.refill.RefillEngine.line_tables`, listed once per
    engine.
    """
    if refill is not None:
        line_cycles, line_bytes = refill.line_tables
        base_line = refill.image.text_base // line_size
        line_count = len(line_cycles)
        lat_penalty = refill.lat_fetch_cycles
    else:
        line_cycles = _Uniform(memory.bytes_read_cycles(line_size))
        line_bytes = _Uniform(memory.beats_for_bytes(line_size) * memory.bus_bytes)
        base_line, line_count = (
            prefetch_bounds if prefetch_bounds is not None else (0, sys.maxsize)
        )
        lat_penalty = 0
    return PrefetchCore(
        policy=policy,
        depth=depth,
        line_cycles=line_cycles,
        line_bytes=line_bytes,
        base_line=base_line,
        line_count=line_count,
        clb=clb,
        lat_penalty=lat_penalty,
        btb=btb,
        contention=contention,
    )
