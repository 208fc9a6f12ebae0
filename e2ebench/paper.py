"""``paper-cold`` and ``paper-warm``: the experiment harness, host wall time.

Both run ``python -m repro.experiments <experiments> --jobs 1`` (the
``ccrp-experiments`` entry point) as a child process.

* ``paper-cold`` runs :data:`COLD` against an empty artifact cache, so
  the executor, assembler, compressor, replays and artifact stores do
  their work.  Its ``setup_s`` is the program's start-up (median of
  :data:`STARTUP_PROBES` ``--help`` runs).
* ``paper-warm`` runs :data:`WARM` against a cache filled during set-up
  by one cold run of :data:`CACHED`, whose time is the workload's
  ``setup_s``.  The replays are bypassed; artifact loads, regeneration,
  code training and formatting remain.

Between them the two run every experiment of ``ccrp-experiments all``.

Every run's exported files are checked by :mod:`gate`, and a warm run
must export exactly the bytes the cold fill exported; an experiment that
fails either check counts as failed.  The measured command repeats, each
time from the same starting state, until ``--seconds`` have been
measured, and medians are reported.

The experiments' inputs are the paper's, so ``--seed`` changes nothing
here, and the order stays ``all``'s: a seeded order would move the shared
study builds from one experiment to another between seeds.

The traced mode adds one run under :mod:`traced_paper` right after an
untraced one, and reports per-layer self times from its spans.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import gate
import spans
from common import BENCH_DIR, RESULTS, WORK, fresh_dir, log, program_env, run_child, tree_mb

#: ``ccrp-experiments all``'s experiments, in its order.
ALL = (
    "figure5",
    "tables1-8",
    "tables9-10",
    "figure9",
    "tables11-13",
    "ablations",
    "extensions",
    "dense-isa",
    "bus-width",
    "cross-isa",
    "pipeline-validation",
    "fault-study",
    "prefetch-study",
)

#: ``all`` without the three experiments that neither read nor write the
#: artifact cache beyond the assembled programs the others load too.
CACHED = tuple(name for name in ALL if name not in ("extensions", "cross-isa", "fault-study"))

#: The three take about 38 s of every run, cold or warm, too much to add to
#: both workloads.  ``fault-study`` (14 s) runs cold and ``extensions`` and
#: ``cross-isa`` (23 s) warm, so each workload's run is 30 s or more: on a
#: shared 2-vCPU Xeon host a run's wall time spreads less the longer it is,
#: and the 17 s of the cold :data:`CACHED` run alone spread 0.23-0.28 over
#: ten runs.
COLD = tuple(name for name in ALL if name in CACHED or name == "fault-study")
WARM = tuple(name for name in ALL if name != "fault-study")

#: Worker processes of the cold run that fills ``paper-warm``'s cache.  Its
#: exports are byte-identical to a serial run's; the pool only shortens set-up.
FILL_JOBS = 2

#: Runs of ``ccrp-experiments --help``: interpreter start plus harness import.
STARTUP_PROBES = 3


class HarnessRun:
    """One ``ccrp-experiments`` process, its wall time, peak RSS and gate failures."""

    def __init__(self, tag: str, experiments, cache: Path, traced: bool = False, jobs: int = 1) -> None:
        base = fresh_dir(WORK / "paper" / tag)
        self.experiments = experiments
        self.out = base / "out"
        self.spans_path = base / "spans.json"
        arguments = [*experiments, "--jobs", str(jobs), "--output-dir", str(self.out)]
        if traced:
            command = [sys.executable, str(BENCH_DIR / "traced_paper.py"), str(self.spans_path), "--", *arguments]
        else:
            command = [sys.executable, "-m", "repro.experiments", *arguments]
        child = run_child(command, program_env(cache), base / "log.txt")
        if child.returncode != 0:
            raise RuntimeError(f"{tag}: ccrp-experiments exited {child.returncode}; see {base / 'log.txt'}")
        self.wall_s = child.wall_s
        self.peak_rss_mb = child.peak_rss_mb
        self.failures = gate.check_experiments(self.out, experiments, RESULTS, gate.load_digests())

    def spans(self) -> list[spans.Span]:
        return [spans.Span(**record) for record in json.loads(self.spans_path.read_text())]


class PaperWorkload:
    def __init__(self, warm: bool, seconds: float, trace: bool) -> None:
        self.warm = warm
        self.experiments = WARM if warm else COLD
        self.seconds = seconds
        self.trace = trace
        self.name = "paper-warm" if warm else "paper-cold"
        self.cache = WORK / "paper" / "cache"
        self.failures: dict[str, list[str]] = {}
        self.attempted = 0

    def _check(self, run: HarnessRun, cold_out: Path | None) -> HarnessRun:
        """Count ``run``'s experiments and their gate failures (warm runs: also against the fill)."""
        failures = dict(run.failures)
        if cold_out is not None:
            for name, problems in gate.check_same(cold_out, run.out, CACHED).items():
                failures.setdefault(name, []).extend(problems)
        self.attempted += len(run.experiments)
        for name, problems in failures.items():
            self.failures[f"{run.out.parent.name}/{name}"] = problems
        return run

    def _setup(self) -> tuple[float, Path | None]:
        """Seconds of set-up, and the cold fill's output directory (warm only)."""
        if self.warm:
            fill = self._check(HarnessRun("fill", CACHED, fresh_dir(self.cache), jobs=FILL_JOBS), None)
            log(f"{self.name}: cache filled in {fill.wall_s:.2f}s")
            return fill.wall_s, fill.out
        probes = []
        for index in range(STARTUP_PROBES):
            probe_dir = fresh_dir(WORK / "paper" / f"probe{index}")
            child = run_child(
                [sys.executable, "-m", "repro.experiments", "--help"],
                program_env(probe_dir),
                probe_dir / "log.txt",
            )
            if child.returncode != 0:
                raise RuntimeError(f"ccrp-experiments --help exited {child.returncode}")
            probes.append(child.wall_s)
        log(f"{self.name}: start-up probes {', '.join(f'{p:.3f}s' for p in probes)}")
        return statistics.median(probes), None

    def _measured_run(self, tag: str, cold_out: Path | None, traced: bool = False) -> HarnessRun:
        if not self.warm:
            fresh_dir(self.cache)
        return self._check(HarnessRun(tag, self.experiments, self.cache, traced=traced), cold_out)

    def run(self) -> dict:
        setup_s, cold_out = self._setup()
        runs: list[HarnessRun] = []
        while not runs or sum(run.wall_s for run in runs) < self.seconds:
            runs.append(self._measured_run(f"run{len(runs)}", cold_out))
            log(f"{self.name}: run {len(runs)} {runs[-1].wall_s:.2f}s")
        result = {
            "setup_s": setup_s,
            "wall_s": statistics.median(run.wall_s for run in runs),
            "cache_mb": tree_mb(self.cache),
            "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
        }
        if self.trace:
            traced = self._measured_run("traced", cold_out, traced=True)
            result["traced_wall_s"] = traced.wall_s
            result["summary"] = spans.summarise(traced.spans())
        return result

    def end_to_end(self, result: dict) -> dict:
        return {
            "wall_s": (result["wall_s"], "s"),
            "setup_s": (result["setup_s"], "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
            "cache_mb": (result["cache_mb"], "MiB"),
        }

    def per_layer(self, result: dict) -> dict:
        summary = result["summary"]
        names = summary["names"]

        def stat(name: str, key: str = "self_s") -> float:
            return names.get(name, {}).get(key, 0)

        artifacts = names.get("core.artifacts.get_or_compute", {})
        hits, misses = artifacts.get("hits", 0), artifacts.get("misses", 0)
        run_s, instructions = stat("machine.run"), stat("machine.run", "count")
        metrics = {
            "workloads.load_s": (stat("workloads.load"), "s"),
            "workloads.load_calls": (stat("workloads.load", "calls"), "count"),
            "isa.assemble_s": (stat("isa.assemble"), "s"),
            "isa.decode_program_s": (stat("isa.decode_program"), "s"),
            "machine.run_s": (run_s, "s"),
            "machine.instructions": (instructions, "count"),
            "machine.sim_ips": (instructions / run_s if run_s else 0.0, "1/s"),
            "core.artifacts.load_s": (artifacts.get("hit_self_s", 0.0), "s"),
            "core.artifacts.store_s": (artifacts.get("self_s", 0.0) - artifacts.get("hit_self_s", 0.0), "s"),
            "core.artifacts.compute_s": (stat("core.artifacts.compute"), "s"),
            "core.artifacts.hits": (hits, "count"),
            "core.artifacts.misses": (misses, "count"),
            "core.artifacts.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "core.study.metrics_s": (stat("core.study.metrics"), "s"),
            "core.study.metrics_calls": (stat("core.study.metrics", "calls"), "count"),
            "experiments.render_s": (stat("experiments.render"), "s"),
            "experiments.main.self_s": (stat("experiments.main"), "s"),
            "trace.overhead_s": (result["traced_wall_s"] - result["wall_s"], "s"),
            "trace.unattributed_s": (result["traced_wall_s"] - summary["root_s"], "s"),
        }
        for name, _module, _attribute, _hook in spans.LAYERS:
            metrics.setdefault(f"{name}_s", (stat(name), "s"))
        for name in self.experiments:
            metrics[f"experiments.{name}.s"] = (stat(f"experiments.{name}", "total_s"), "s")
            metrics[f"experiments.{name}.self_s"] = (stat(f"experiments.{name}"), "s")
        return metrics

    def tree(self, result: dict) -> list[str]:
        summary = result["summary"]
        attributed = sum(stats_["self_s"] for stats_ in summary["names"].values())
        unattributed = result["traced_wall_s"] - summary["root_s"]
        return spans.render_tree(summary["paths"]) + [
            f"self times {attributed:.3f}s + unattributed {unattributed:.3f}s = "
            f"{attributed + unattributed:.3f}s; traced wall {result['traced_wall_s']:.3f}s"
        ]

    def counts(self) -> tuple[int, int]:
        return self.attempted, len(self.failures)
