"""``ccrp-faults`` — the fault-injection study from the command line.

Runs the blast-radius / refill-integrity study of
:mod:`repro.experiments.fault_study` from one seed and checks the paper's
robustness properties (block codecs confine a single fault to one line;
LZW cascades).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.fault_study import (
    DEFAULT_PROGRAMS,
    DEFAULT_TRIALS,
    run_fault_study,
)

#: Tiny but sufficient trial count for the CI gate (still exercises every
#: codec x model cell across all default programs).
SMOKE_TRIALS = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccrp-faults",
        description="Inject storage faults under every codec, measure blast "
        "radius and CRC detection, and verify the paper's block-bounded "
        "damage property.",
    )
    parser.add_argument("--seed", type=int, default=1992, help="master fault seed")
    parser.add_argument(
        "--trials", type=int, default=DEFAULT_TRIALS,
        help="trials per (codec, fault model, program) cell",
    )
    parser.add_argument(
        "--programs", nargs="+", default=list(DEFAULT_PROGRAMS),
        metavar="NAME", help="corpus programs to inject into",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI mode: {SMOKE_TRIALS} trials, exit nonzero unless every "
        "robustness property holds",
    )
    parser.add_argument(
        "--output", type=Path, metavar="FILE", help="also write the tables here"
    )
    parser.add_argument(
        "--metrics", type=Path, metavar="FILE",
        help="write the metrics-registry snapshot as JSON",
    )
    args = parser.parse_args(argv)

    trials = SMOKE_TRIALS if args.smoke else args.trials
    if trials < 1:
        print("ccrp-faults: --trials must be at least 1", file=sys.stderr)
        return 2

    try:
        result = run_fault_study(
            programs=tuple(args.programs), trials_per_case=trials, seed=args.seed
        )
    except ConfigurationError as error:
        print(f"ccrp-faults: {error}", file=sys.stderr)
        return 2

    table = result.render()
    print(table)
    if args.output:
        try:
            args.output.write_text(table + "\n")
        except OSError as error:
            print(f"ccrp-faults: {error}", file=sys.stderr)
            return 1

    exit_code = 0
    violations = result.violations()
    if violations:
        for violation in violations:
            print(f"ccrp-faults: property violated: {violation}", file=sys.stderr)
        exit_code = 1
    elif args.smoke:
        print("\nAll robustness properties hold: single faults bounded to one "
              "line under block codecs, 100% bit-flip detection, LZW cascade "
              "demonstrated.")

    if args.metrics:
        from repro.core.metrics import METRICS

        try:
            args.metrics.write_text(json.dumps(METRICS.snapshot(), indent=2) + "\n")
        except OSError as error:
            print(f"ccrp-faults: {error}", file=sys.stderr)
            return 1

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
