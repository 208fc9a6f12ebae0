"""Branch-aware prefetching refill engine (see ``docs/modeling_notes.md`` §15).

The paper's CCRP charges every instruction-cache miss the full
sequential Huffman decode latency.  This package models the front end a
real implementation would pair with the decoder: a next-line predictor
and a small static branch-target buffer speculatively decompress the
lines fetch is likely to want next into a bounded prefetch buffer, so a
later demand miss pays only the *residual* decode cycles — zero when
the speculative decode finished in the shadow of execution.

Exports:

* :data:`~repro.prefetch.engine.FETCH_POLICIES` /
  :func:`~repro.prefetch.engine.validate_fetch_policy` — the selectable
  policies (``demand``, ``nextline``, ``btb``);
* :class:`~repro.prefetch.engine.PrefetchCore` /
  :func:`~repro.prefetch.engine.build_core` — the per-miss state
  machine and its configuration for one machine model;
* :func:`~repro.prefetch.timeline.simulate_fetch_stream` /
  :class:`~repro.prefetch.engine.FetchReplay` — the vectorized
  whole-trace replay the study reads, checked against a per-access
  reference walk in ``tests/fetch_oracle.py``;
* :class:`~repro.prefetch.predictor.StaticBTB` /
  :func:`~repro.prefetch.predictor.build_btb` — the CFG-trained
  branch-target buffer.
"""

from repro.prefetch.engine import (
    FETCH_POLICIES,
    FetchReplay,
    PrefetchCore,
    build_core,
    validate_fetch_policy,
)
from repro.prefetch.predictor import DEFAULT_BTB_ENTRIES, StaticBTB, build_btb
from repro.prefetch.timeline import simulate_fetch_stream

__all__ = [
    "DEFAULT_BTB_ENTRIES",
    "FETCH_POLICIES",
    "FetchReplay",
    "PrefetchCore",
    "StaticBTB",
    "build_btb",
    "build_core",
    "simulate_fetch_stream",
    "validate_fetch_policy",
]
