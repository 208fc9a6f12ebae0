"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload paper-cold --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` lists the same names and metrics):

* ``paper-cold`` -- ``ccrp-experiments`` on an empty artifact cache;
* ``paper-warm`` -- ``ccrp-experiments all``'s experiments on a cache
  filled during set-up;
* ``service-mixed`` -- seeded compress, decompress and simulate requests
  against ``ccrp-serve --workers 1``: closed-loop bursts, then an open
  loop at a fixed share of the capacity the bursts measured.

All timings are host time.  Simulated statistics are outputs: they are
checked (``gate.py``), never reported as metrics.  With ``--trace 0`` the
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics instead, and the span tree is printed above it.
Every run also prints and stores the runner record (CPU, affinity,
versions, revision, seed, mode) under ``.e2ebench/records/``.

Exits 2 without a result when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import ROOT, SRC, WORK, dump, log, runner_record

WORKLOADS = ("paper-cold", "paper-warm", "service-mixed")


def build(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "service-mixed":
        from service import ServiceWorkload

        return ServiceWorkload(seed, seconds, trace)
    from paper import PaperWorkload

    return PaperWorkload(workload == "paper-warm", seconds, trace)


def declared(section: str) -> dict[str, str]:
    """``{metric: unit}`` for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def complete(measured: dict, units: dict[str, str]) -> dict:
    """Every declared metric, 0 where this workload does no such work; units must agree."""
    unknown = set(measured) - set(units)
    wrong = {name for name, (_, unit) in measured.items() if name in units and units[name] != unit}
    if unknown or wrong:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}; unit mismatch: {sorted(wrong)}")
    return {name: measured.get(name, (0.0, unit)) for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still stops the server and children it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    trace = bool(args.trace)
    units = declared("per_layer" if trace else "end_to_end")
    runner = runner_record(args.workload, args.seed, trace)
    log("runner " + json.dumps(runner, sort_keys=True))
    workload = build(args.workload, args.seed, args.seconds, trace)
    result = workload.run()
    attempted, failed = workload.counts()
    if trace:
        metrics = workload.per_layer(result)
        for line in workload.tree(result):
            log(line)
    else:
        metrics = workload.end_to_end(result)
        metrics["ok_frac"] = (1 - failed / attempted, "ratio")
    metrics = complete(metrics, units)
    for name, problems in workload.failures.items():
        for problem in problems:
            log(f"FAILED {name}: {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        log(f"{name:<44} {value:>16.6f} {unit}")
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    dump(
        WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"runner": runner, "result": record, "failures": workload.failures},
    )
    print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
