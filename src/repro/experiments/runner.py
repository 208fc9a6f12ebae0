"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments all
    python -m repro.experiments all --jobs 4 --output-dir results/
    python -m repro.experiments figure5 tables9-10 --metrics metrics.json
    ccrp-experiments figure9 --no-cache

``--jobs N`` fans independent experiments across a process pool; results
are printed and exported in the requested order and are byte-identical to
a serial run (workers ship pre-serialised payloads through one shared
JSON encoder).  ``--metrics`` dumps stage timers and artifact-cache
hit/miss counters — including those of worker processes — so speedups
are measured, not asserted.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path


def _registry() -> dict[str, Callable[[], object]]:
    from repro.experiments.ablations import run_ablations
    from repro.experiments.bus_width import run_bus_width
    from repro.experiments.cross_isa import run_cross_isa
    from repro.experiments.dense_isa import run_dense_isa
    from repro.experiments.extensions import run_extensions
    from repro.experiments.fault_study import run_fault_study
    from repro.experiments.figure5 import run_figure5
    from repro.experiments.figure9 import run_figure9
    from repro.experiments.pipeline_validation import run_pipeline_validation
    from repro.experiments.prefetch_study import run_prefetch_study
    from repro.experiments.tables1_8 import run_tables1_8
    from repro.experiments.tables9_10 import run_tables9_10
    from repro.experiments.tables11_13 import run_tables11_13

    return {
        "figure5": run_figure5,
        "tables1-8": run_tables1_8,
        "tables9-10": run_tables9_10,
        "figure9": run_figure9,
        "tables11-13": run_tables11_13,
        "ablations": run_ablations,
        "extensions": run_extensions,
        "dense-isa": run_dense_isa,
        "bus-width": run_bus_width,
        "cross-isa": run_cross_isa,
        "pipeline-validation": run_pipeline_validation,
        "fault-study": run_fault_study,
        "prefetch-study": run_prefetch_study,
    }


@dataclass(frozen=True)
class ExperimentOutcome:
    """What one experiment run ships back to the coordinating process."""

    name: str
    rendered: str
    payload: object
    elapsed_seconds: float
    metrics: dict | None = None


def _run_single(
    name: str, use_cache: bool = True, isolate_metrics: bool = False
) -> ExperimentOutcome:
    """Run one experiment and package its result for printing/export.

    Module-level so :class:`ProcessPoolExecutor` can pickle it.  Workers
    pass ``isolate_metrics=True``: the registry is reset before the run
    and its snapshot travels back for the parent to merge, so pooled
    workers that run several experiments never double-report.
    """
    from repro.core import artifacts
    from repro.core.metrics import METRICS
    from repro.experiments.export import result_to_dict

    if not use_cache:
        artifacts.set_cache_enabled(False)
    if isolate_metrics:
        METRICS.reset()
    started = time.perf_counter()
    with METRICS.stage(f"experiment.{name}"):
        result = _registry()[name]()
    elapsed = time.perf_counter() - started
    return ExperimentOutcome(
        name=name,
        rendered=result.render(),
        payload=result_to_dict(result),
        elapsed_seconds=elapsed,
        metrics=METRICS.snapshot() if isolate_metrics else None,
    )


def _dedupe(names: list[str]) -> list[str]:
    """Drop repeated experiment names, keeping first-occurrence order."""
    return list(dict.fromkeys(names))


def main(argv: list[str] | None = None) -> int:
    """Run the named experiments and print their rendered tables."""
    from repro.core import artifacts
    from repro.core.metrics import METRICS
    from repro.core.pool import effective_jobs, pool_context
    from repro.experiments.export import export_payload

    registry = _registry()
    parser = argparse.ArgumentParser(
        prog="ccrp-experiments",
        description="Regenerate the tables and figures of Wolfe & Chanin, MICRO 1992.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(registry) + ["all"],
        help="which experiments to run ('all' runs every one)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        help="also write <experiment>.json and <experiment>.txt here",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N experiments in parallel worker processes "
        "(clamped to the CPUs actually available to this process; the "
        "effective value lands in --metrics)",
    )
    parser.add_argument(
        "--metrics",
        type=Path,
        metavar="FILE",
        help="write stage timers and cache counters as JSON",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk artifact cache for this run",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    names = list(registry) if "all" in args.experiments else _dedupe(args.experiments)
    # Clamp to the CPU count and the task count: asking for more workers
    # than either just adds process start-up cost.  1 means run serial.
    jobs_effective = effective_jobs(args.jobs, len(names))
    if args.output_dir:
        args.output_dir.mkdir(parents=True, exist_ok=True)

    overall_started = time.perf_counter()

    def _finish(outcome: ExperimentOutcome) -> None:
        print(outcome.rendered)
        print(f"\n[{outcome.name} completed in {outcome.elapsed_seconds:.1f}s]\n")
        if args.output_dir:
            json_path, text_path = export_payload(
                outcome.payload, outcome.rendered, outcome.name, args.output_dir
            )
            print(f"[wrote {json_path} and {text_path}]\n")

    outcomes: list[ExperimentOutcome] = []
    bypass = artifacts.cache_disabled() if args.no_cache else contextlib.nullcontext()
    with bypass:
        if jobs_effective > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=jobs_effective, mp_context=pool_context()
            ) as pool:
                futures = [
                    pool.submit(
                        _run_single,
                        name,
                        use_cache=not args.no_cache,
                        isolate_metrics=True,
                    )
                    for name in names
                ]
                for future in futures:
                    outcome = future.result()
                    METRICS.merge(outcome.metrics or {})
                    outcomes.append(outcome)
                    _finish(outcome)
        else:
            for name in names:
                outcome = _run_single(name, use_cache=not args.no_cache)
                outcomes.append(outcome)
                _finish(outcome)

        cache_state = {
            "enabled": artifacts.cache_enabled(),
            "dir": str(artifacts.cache_root()),
        }

    if args.metrics:
        METRICS.write_json(
            args.metrics,
            extra={
                "jobs": args.jobs,
                "jobs_effective": jobs_effective,
                "cache": cache_state,
                "total_wall_seconds": time.perf_counter() - overall_started,
                "experiments": {
                    outcome.name: {"elapsed_seconds": outcome.elapsed_seconds}
                    for outcome in outcomes
                },
            },
        )
        print(f"[wrote metrics to {args.metrics}]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
