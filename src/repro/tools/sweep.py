"""``ccrp-sweep`` — run design-space sweeps from the command line.

The command-line face of :mod:`repro.core.sweep`: sweeps the cross
product of the given axes for each named workload, optionally across a
process pool, and exports the reports and failure reports.

Example::

    # One machine, four worker processes
    ccrp-sweep eightq lloop01 --cache-sizes 256 512 1024 --jobs 4 \\
        --csv sweep.csv --json sweep.json

The ``--json`` export is deterministic, so a parallel run can be checked
with ``cmp`` against a serial run's export.  Exits 0 on a clean sweep, 1
when any task failed (the partial results are still written), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.core.sweep import (
    DEFAULT_CACHE_SIZES,
    DEFAULT_CLB_ENTRIES,
    DEFAULT_DATA_MISS_RATES,
    DEFAULT_MEMORIES,
    DEFAULT_RETRIES,
    SweepResult,
    sweep_many,
)
from repro.errors import ReproError

#: Version tag of the ``--json`` export.
JSON_SCHEMA = "ccrp-sweep/1"


def result_payload(result: SweepResult) -> dict:
    """The deterministic JSON form of a sweep result (reports + failures)."""
    return {
        "schema": JSON_SCHEMA,
        "reports": result.rows(),
        "failures": [dataclasses.asdict(failure) for failure in result.failures],
    }


def _write_json(result: SweepResult, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result_payload(result), indent=2, sort_keys=True) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccrp-sweep",
        description="Sweep the CCRP design space: run each workload's grid "
        "of cache sizes, memories, CLB sizes and data-cache miss rates, "
        "serially or across worker processes.",
    )
    parser.add_argument(
        "workloads", nargs="+", metavar="WORKLOAD",
        help="suite workload names to sweep",
    )
    parser.add_argument(
        "--cache-sizes", type=int, nargs="+", default=list(DEFAULT_CACHE_SIZES),
        metavar="BYTES", help="instruction-cache sizes",
    )
    parser.add_argument(
        "--memories", nargs="+", default=list(DEFAULT_MEMORIES),
        metavar="NAME", help="memory-model names",
    )
    parser.add_argument(
        "--clb-entries", type=int, nargs="+", default=list(DEFAULT_CLB_ENTRIES),
        metavar="N", help="CLB capacities",
    )
    parser.add_argument(
        "--data-miss-rates", type=float, nargs="+",
        default=list(DEFAULT_DATA_MISS_RATES),
        metavar="RATE", help="data-cache miss rates",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the workloads across N worker processes (clamped "
        "to the CPUs actually available)",
    )
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help="bounded re-attempts per failing task",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail fast on the first unrecoverable task instead of "
        "recording a FailureReport",
    )
    parser.add_argument(
        "--csv", type=Path, metavar="FILE", help="write the reports as CSV"
    )
    parser.add_argument(
        "--json", type=Path, metavar="FILE",
        help="write reports and failures as deterministic JSON "
        "(byte-comparable between serial and parallel runs)",
    )
    parser.add_argument(
        "--metrics", type=Path, metavar="FILE",
        help="write the metrics-registry snapshot as JSON",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.retries < 0:
        parser.error("--retries must be at least 0")

    try:
        result = sweep_many(
            args.workloads,
            jobs=args.jobs,
            strict=args.strict,
            retries=args.retries,
            cache_sizes=tuple(args.cache_sizes),
            memories=tuple(args.memories),
            clb_entries=tuple(args.clb_entries),
            data_miss_rates=tuple(args.data_miss_rates),
        )
    except ReproError as error:
        print(f"ccrp-sweep: {error}", file=sys.stderr)
        return 2
    print(f"swept {', '.join(args.workloads)}: "
          f"{len(result.reports)} reports, {len(result.failures)} failures")

    if result.reports:
        best, worst = result.best(), result.worst()
        print(f"  best:  {best.program} {best.memory}/{best.cache_bytes}B "
              f"-> {best.relative_execution_time:.3f}x")
        print(f"  worst: {worst.program} {worst.memory}/{worst.cache_bytes}B "
              f"-> {worst.relative_execution_time:.3f}x")
    for failure in result.failures:
        print(f"  failure: {failure.render()}")

    try:
        if args.csv:
            args.csv.parent.mkdir(parents=True, exist_ok=True)
            result.to_csv(args.csv)
            print(f"[wrote {args.csv}]")
        if args.json:
            _write_json(result, args.json)
            print(f"[wrote {args.json}]")
        if args.metrics:
            from repro.core.metrics import METRICS

            METRICS.write_json(args.metrics, extra={"jobs": args.jobs})
            print(f"[wrote {args.metrics}]")
    except OSError as error:
        print(f"ccrp-sweep: {error}", file=sys.stderr)
        return 1

    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
