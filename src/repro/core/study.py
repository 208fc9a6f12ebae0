"""Trace-driven comparison of the standard RISC and CCRP machines.

:class:`ProgramStudy` owns everything reusable about one workload — its
execution trace, compressed image, per-cache-size miss streams, and
per-cache-size CLB miss curves — so design-space sweeps (the paper's Tables 1-13
and Figure 9) pay for each expensive piece exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.cache.stats import CacheStats
from repro.ccrp.clb import CLB
from repro.ccrp.compressor import ProgramCompressor
from repro.ccrp.refill import RefillEngine
from repro.ccrp.stackdist import lru_miss_count, lru_miss_curve
from repro.compression.huffman import HuffmanCode
from repro.core import artifacts
from repro.core.config import SystemConfig
from repro.core.metrics import METRICS
from repro.core.performance import ComparisonReport, SystemMetrics
from repro.core.standard import standard_code
from repro.lat.entry import ENTRY_BYTES, LINES_PER_ENTRY
from repro.memsys.models import get_memory_model
from repro.pipeline.datapath import PipelineResult
from repro.pipeline.frontend import (
    MissEvents,
    baseline_critical_word_cycles,
    ccrp_critical_word_cycles,
    miss_events,
)
from repro.pipeline.hazards import HazardModel, R2000_HAZARDS
from repro.pipeline.timeline import BlockTable, replay_trace
from repro.prefetch import FetchReplay, build_btb, simulate_fetch_stream
from repro.workloads.suite import Workload, load


class ProgramStudy:
    """Cached per-workload simulation state for design-space sweeps.

    Args:
        workload: A suite name or a :class:`~repro.workloads.suite.Workload`.
        code: Huffman code for the CCRP image; defaults to the library's
            standard preselected bounded code.
        block_alignment: Compressed-block alignment (1 = byte, 4 = word).
        max_instructions: Trace-length cap passed to the executor.
        hazards: Interlock parameters of the pipeline timing backend.
    """

    def __init__(
        self,
        workload: str | Workload,
        code: HuffmanCode | None = None,
        block_alignment: int = 1,
        max_instructions: int = 4_000_000,
        hazards: HazardModel = R2000_HAZARDS,
    ) -> None:
        self.workload = load(workload) if isinstance(workload, str) else workload
        self.code = code if code is not None else standard_code()
        self.block_alignment = block_alignment
        self.max_instructions = max_instructions
        self.hazards = hazards

        cache = artifacts.get_cache()
        program = self.workload.program
        # Each stored kind is keyed on its inputs: the program itself, or
        # the full key of the stored value it is computed from.
        trace_parts = (
            self.workload.name,
            artifacts.program_fingerprint(program),
            max_instructions,
        )
        image_parts = (
            artifacts.fingerprint_bytes(program.text),
            program.text_base,
            artifacts.code_fingerprint(self.code),
            block_alignment,
        )
        self._trace_key = artifacts.key("trace", *trace_parts)
        self._image_key = artifacts.key("image", *image_parts)

        with METRICS.stage("study.trace"):
            self.execution = cache.get_or_compute(
                "trace",
                lambda: self.workload.run(max_instructions=max_instructions),
                *trace_parts,
            )

        def _compress():
            compressor = ProgramCompressor(self.code, alignment=block_alignment)
            return compressor.compress(program.text, text_base=program.text_base)

        with METRICS.stage("study.compress"):
            self.image = cache.get_or_compute("image", _compress, *image_parts)

        self._cache_stats: dict[int, CacheStats] = {}
        self._clb_curves: dict[int, np.ndarray] = {}
        self._engines: dict[str, RefillEngine] = {}
        self._pipeline_replay: PipelineResult | None = None
        self._miss_events: dict[int, MissEvents] = {}
        self._prefetch_replays: dict[tuple, "FetchReplay"] = {}
        self._btb = None

    # ------------------------------------------------------------------
    # Cached building blocks
    # ------------------------------------------------------------------

    def cache_stats(self, cache_bytes: int) -> CacheStats:
        """Miss statistics for one cache size (memoised and disk-cached)."""
        stats = self._cache_stats.get(cache_bytes)
        if stats is None:
            with METRICS.stage("study.cache_sim"):
                stats = artifacts.get_cache().get_or_compute(
                    "miss-stream",
                    lambda: self.miss_events(cache_bytes).cache_stats(),
                    *self._miss_stream_parts(cache_bytes),
                )
            self._cache_stats[cache_bytes] = stats
        return stats

    def _miss_stream_parts(self, cache_bytes: int) -> tuple:
        return (self._trace_key, cache_bytes, self.image.line_size)

    def clb_miss_count(self, cache_bytes: int, clb_entries: int) -> int:
        """CLB misses over the miss stream of one cache size (cached).

        Served from the one-pass stack-distance miss curve (pinned in
        tests to the stateful :class:`CLB`), so sweeping CLB sizes costs
        one simulation per cache size.
        """
        return lru_miss_count(self._clb_curve(cache_bytes), clb_entries)

    def clb_miss_counts(self, cache_bytes: int) -> dict[int, int]:
        """Miss counts for *every* CLB capacity over one cache size.

        One stack-distance pass yields the whole curve: keys run from 1
        up to the largest finite stack distance in the stream; any larger
        CLB takes exactly the last entry's (cold-miss) count.
        """
        curve = self._clb_curve(cache_bytes)
        if curve.size == 1:  # empty miss stream
            return {1: int(curve[0])}
        return {entries: int(curve[entries]) for entries in range(1, curve.size)}

    def _clb_curve(self, cache_bytes: int) -> np.ndarray:
        curve = self._clb_curves.get(cache_bytes)
        if curve is None:
            with METRICS.stage("study.clb_sim"):
                miss_lines = self.cache_stats(cache_bytes).miss_lines

                def _curve() -> np.ndarray:
                    return lru_miss_curve(miss_lines // LINES_PER_ENTRY)

                curve = artifacts.get_cache().get_or_compute(
                    "clb-curve",
                    _curve,
                    artifacts.key("miss-stream", *self._miss_stream_parts(cache_bytes)),
                    LINES_PER_ENTRY,
                )
            self._clb_curves[cache_bytes] = curve
        return curve

    def refill_engine(self, memory: object, decoder) -> RefillEngine:
        """Refill-cost tables for one memory model (cached per name)."""
        model = get_memory_model(memory)
        key = f"{model.name}/{decoder.bytes_per_cycle}/{decoder.detailed}"
        engine = self._engines.get(key)
        if engine is None:
            engine = RefillEngine(self.image, model, decoder)
            self._engines[key] = engine
        return engine

    def pipeline_replay(self) -> PipelineResult:
        """Hazard/branch cycle totals of the 5-stage pipeline model.

        Memory-independent (the fetch terms are zero here — they depend
        on the cache/memory configuration and are added per config), so
        one vectorized replay serves the whole design-space sweep.  Disk
        cached alongside the trace artifacts.
        """
        replay = self._pipeline_replay
        if replay is None:
            with METRICS.stage("study.pipeline_replay"):

                def _replay() -> PipelineResult:
                    table = BlockTable(
                        self.workload.program.instructions,
                        text_base=self.workload.program.text_base,
                        hazards=self.hazards,
                    )
                    return replay_trace(
                        self.execution.trace,
                        self.workload.program.instructions,
                        block_table=table,
                    )

                replay = artifacts.get_cache().get_or_compute(
                    "pipeline-replay",
                    _replay,
                    self._trace_key,
                    self.hazards.fingerprint(),
                )
            self._pipeline_replay = replay
        return replay

    def btb(self):
        """The workload's static branch-target buffer (built once).

        Trained from the CFG's static transfer edges
        (:func:`repro.isa.cfg.static_transfer_targets`), so it is a
        property of the program text alone — every configuration and
        policy shares it.
        """
        if self._btb is None:
            self._btb = build_btb(
                self.workload.program.instructions,
                text_base=self.workload.program.text_base,
                line_size=self.image.line_size,
            )
        return self._btb

    def prefetch_key(self, config: SystemConfig) -> tuple:
        """The complete identity of one prefetching fetch-path replay.

        The study (the full keys of its trace and image) and the machine
        (cache bytes, memory, decoder, CLB size, policy, depth).  Keys the
        ``prefetch-replay`` artifact.
        """
        return (
            self._trace_key,
            self._image_key,
            config.cache_bytes,
            get_memory_model(config.memory).name,
            config.decoder.bytes_per_cycle,
            config.decoder.detailed,
            config.clb_entries,
            config.fetch_policy,
            config.prefetch_depth,
        )

    def prefetch_replay(self, config: SystemConfig) -> FetchReplay:
        """Fetch-path replay of one prefetching configuration (cached).

        Runs the vectorized timeline
        (:func:`repro.prefetch.simulate_fetch_stream`) over the whole
        trace — equal, field for field, to the per-access reference walk
        of ``tests/fetch_oracle.py``, which the property tests and a
        full-trace test over every simulation program pin.  Disk cached
        under :meth:`prefetch_key`.
        """
        key = self.prefetch_key(config)
        replay = self._prefetch_replays.get(key)
        if replay is None:
            with METRICS.stage("study.prefetch_replay"):
                engine = self.refill_engine(config.memory, config.decoder)

                def _replay() -> FetchReplay:
                    return simulate_fetch_stream(
                        self.miss_events(config.cache_bytes),
                        config.cache_bytes,
                        self.image.line_size,
                        get_memory_model(config.memory),
                        refill=engine,
                        clb=CLB(entries=config.clb_entries),
                        policy=config.fetch_policy,
                        prefetch_depth=config.prefetch_depth,
                        btb=self.btb() if config.fetch_policy == "btb" else None,
                    )

                replay = artifacts.get_cache().get_or_compute(
                    "prefetch-replay", _replay, *key
                )
            self._prefetch_replays[key] = replay
        return replay

    def miss_events(self, cache_bytes: int) -> MissEvents:
        """Position and line of every instruction-cache miss (memoised).

        The miss stream is policy-independent, so :meth:`cache_stats`,
        every prefetch replay and :meth:`miss_addresses` of one cache
        size share one extraction (one sort by set).  Not disk cached:
        the statistics and replays that read it are.
        """
        events = self._miss_events.get(cache_bytes)
        if events is None:
            with METRICS.stage("study.miss_events"):
                events = miss_events(
                    self.execution.trace.addresses, cache_bytes, self.image.line_size
                )
            self._miss_events[cache_bytes] = events
        return events

    def miss_addresses(self, cache_bytes: int) -> np.ndarray:
        """Byte address of every missing fetch, in occurrence order.

        The per-miss *offsets within the line* drive the
        critical-word-first refill extension; the plain miss-line stream
        of :meth:`cache_stats` cannot provide them.
        """
        return self.execution.trace.addresses[self.miss_events(cache_bytes).positions]

    # ------------------------------------------------------------------
    # The comparison itself
    # ------------------------------------------------------------------

    def metrics(self, config: SystemConfig) -> ComparisonReport:
        """Simulate both machines under ``config`` and compare."""
        stats = self.cache_stats(config.cache_bytes)
        engine = self.refill_engine(config.memory, config.decoder)
        model = get_memory_model(config.memory)
        execution = self.execution

        data_cycles = config.data_cache.penalty_cycles(execution.data_accesses)
        miss_line_indices = self._line_indices(stats.miss_lines)
        clb_misses = self.clb_miss_count(config.cache_bytes, config.clb_entries)

        # --- timing backend ----------------------------------------------
        if config.timing == "pipeline":
            replay = self.pipeline_replay()
            base_cycles = (
                replay.issue_cycles
                + replay.fill_cycles
                + replay.hazard_stall_cycles
                + replay.branch_stall_cycles
            )
            timing_fields = {
                "timing": "pipeline",
                "hazard_stall_cycles": replay.hazard_stall_cycles,
                "branch_stall_cycles": replay.branch_stall_cycles,
                "fill_cycles": replay.fill_cycles,
            }
            METRICS.count("pipeline.hazard_stall_cycles", replay.hazard_stall_cycles)
            METRICS.count("pipeline.branch_stall_cycles", replay.branch_stall_cycles)
        else:
            base_cycles = execution.base_cycles
            timing_fields = {
                "timing": "additive",
                "hazard_stall_cycles": execution.stall_cycles,
            }

        # --- refill freezes ----------------------------------------------
        prefetch_fields: dict[str, int | str] = {}
        if config.critical_word_first:
            misses = self.miss_addresses(config.cache_bytes)
            baseline_refill = baseline_critical_word_cycles(model, stats.misses)
            ccrp_refill = (
                ccrp_critical_word_cycles(engine, misses)
                + clb_misses * engine.lat_fetch_cycles
            )
        else:
            baseline_refill = engine.baseline_miss_cycles(stats.misses)
            ccrp_refill = (
                engine.ccrp_miss_cycles(miss_line_indices)
                + clb_misses * engine.lat_fetch_cycles
            )
        if config.fetch_policy != "demand":
            # The prefetcher only exists on the CCRP side — it hides
            # *decompression* latency; the standard machine's burst refill
            # has nothing comparable to overlap, so the baseline stays
            # demand-fetched and the comparison shows the recovered gap.
            fetch = self.prefetch_replay(config)
            ccrp_refill = fetch.fetch_stall_cycles
            clb_misses = fetch.clb_misses
            prefetch_fields = {
                "fetch_policy": config.fetch_policy,
                "prefetch_issued": fetch.issued,
                "prefetch_useful": fetch.useful,
                "prefetch_useless": fetch.useless,
                "prefetch_partial": fetch.partial,
                "covered_stall_cycles": fetch.covered_stall_cycles,
                "wasted_traffic_bytes": fetch.wasted_traffic_bytes,
            }
            METRICS.count("prefetch.issued", fetch.issued)
            METRICS.count("prefetch.useful", fetch.useful)
            METRICS.count("prefetch.useless", fetch.useless)
            METRICS.count("prefetch.partial", fetch.partial)
            METRICS.count("prefetch.covered_stall_cycles", fetch.covered_stall_cycles)
            METRICS.count("frontend.clb_hits", fetch.clb_hits)
            METRICS.count("frontend.clb_misses", fetch.clb_misses)
        else:
            METRICS.count("frontend.clb_hits", stats.misses - clb_misses)
            METRICS.count("frontend.clb_misses", clb_misses)

        # --- standard RISC machine --------------------------------------
        baseline = SystemMetrics(
            base_cycles=base_cycles,
            refill_cycles=baseline_refill,
            data_cycles=data_cycles,
            instruction_traffic_bytes=stats.misses * self.image.line_size,
            misses=stats.misses,
            accesses=stats.accesses,
            **timing_fields,
        )

        # --- compressed code machine ------------------------------------
        if config.fetch_policy != "demand":
            # The replay's traffic already folds in the LAT-entry reads
            # (demand and speculative) and wrong-path prefetch bytes.
            ccrp_traffic = self.prefetch_replay(config).traffic_bytes
        else:
            ccrp_traffic = (
                engine.ccrp_fetched_bytes(miss_line_indices) + clb_misses * ENTRY_BYTES
            )
        ccrp = SystemMetrics(
            base_cycles=base_cycles,
            refill_cycles=ccrp_refill,
            data_cycles=data_cycles,
            instruction_traffic_bytes=ccrp_traffic,
            misses=stats.misses,
            accesses=stats.accesses,
            clb_misses=clb_misses,
            **timing_fields,
            **prefetch_fields,
        )

        # An integrity policy stores one CRC byte per line with the image;
        # charge it to the reported ratio the same way the LAT is charged.
        compression_ratio = (
            self.image.total_ratio_with_lat
            if config.integrity == "off"
            else self.image.total_ratio_with_integrity
        )

        return ComparisonReport(
            program=self.workload.name,
            cache_bytes=config.cache_bytes,
            memory=model.name,
            clb_entries=config.clb_entries,
            data_cache_miss_rate=config.data_cache.miss_rate,
            baseline=baseline,
            ccrp=ccrp,
            compression_ratio=compression_ratio,
        )

    def _line_indices(self, miss_lines: np.ndarray) -> np.ndarray:
        base_line = self.workload.program.text_base // self.image.line_size
        return miss_lines - base_line


def compare(workload: str, config: SystemConfig | None = None) -> ComparisonReport:
    """One-call comparison: workload name + config -> report.

    Studies come from :func:`repro.core.artifacts.get_study`, a bounded
    LRU keyed on the *complete* study identity (workload, text and code
    fingerprints, block alignment, instruction cap), so sweeping
    configurations stays cheap and changing the code or the instruction
    cap can never return a stale study.  Tests reset it with
    :func:`repro.core.artifacts.clear`.
    """
    config = config or SystemConfig()
    study = artifacts.get_study(workload, block_alignment=config.block_alignment)
    return study.metrics(config)
