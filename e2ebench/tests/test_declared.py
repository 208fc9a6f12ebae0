"""Every traced layer and every experiment has its per-layer metrics declared."""

import json
from pathlib import Path

import paper
import spans

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def per_layer_names():
    return {metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]}


def test_every_wrapped_entry_point_has_a_metric():
    declared = per_layer_names()
    assert {f"{name}_s" for name, _module, _attribute, _hook in spans.LAYERS} <= declared


def test_every_experiment_of_all_has_its_metrics():
    declared = per_layer_names()
    for name in paper.ALL:
        assert {f"experiments.{name}.s", f"experiments.{name}.self_s"} <= declared


def test_the_paper_workloads_run_every_experiment_of_all():
    assert set(paper.COLD) | set(paper.WARM) == set(paper.ALL)
    assert set(paper.CACHED) <= set(paper.COLD) & set(paper.WARM)
