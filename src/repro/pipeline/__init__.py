"""Cycle-accurate 5-stage R2000 pipeline timing (IF/ID/EX/MEM/WB).

The additive model in :mod:`repro.machine.stalls` charges every
long-latency instruction its full result latency, and the study layer
adds averaged refill costs on top — fetch timing and intra-pipeline
hazards never interact.  This package models the pipeline itself:

* :mod:`repro.pipeline.hazards` — register read/write sets, interlock
  and forwarding rules (:class:`HazardModel`);
* :mod:`repro.pipeline.datapath` — the stage state machine: per-program
  hazard data and the in-order issue scoreboard;
* :mod:`repro.pipeline.frontend` — instruction-cache miss events and
  their refill costs over the CCRP's
  :class:`~repro.ccrp.refill.RefillEngine`, so a cache miss freezes the
  pipeline for the exact per-line refill cost (with a
  critical-word-first modelled extension);
* :mod:`repro.pipeline.timeline` — vectorized replay over basic-block
  execution counts (:func:`replay_trace`) so whole-suite runs stay
  fast.  ``tests/fetch_oracle.py`` keeps the per-instruction replay it
  is checked against.

The paper notes the pipeline "is not allowed to slide" during fetch
delays (Section 4.1): a refill freezes every stage, so refill cycles
add to — never overlap with — hazard stalls.  The timeline exploits
exactly that property to stay vectorized.
"""

from __future__ import annotations

from repro.pipeline.datapath import PIPELINE_FILL_CYCLES, PipelineResult
from repro.pipeline.frontend import MissEvents, miss_events, miss_mask
from repro.pipeline.hazards import HazardModel, R2000_HAZARDS
from repro.pipeline.timeline import BlockTable, replay_trace

__all__ = [
    "PIPELINE_FILL_CYCLES",
    "PipelineResult",
    "MissEvents",
    "miss_events",
    "miss_mask",
    "HazardModel",
    "R2000_HAZARDS",
    "BlockTable",
    "replay_trace",
]
