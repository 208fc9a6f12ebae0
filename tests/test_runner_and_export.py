"""Tests for the experiment CLI runner and the JSON/text export."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.export import export_result, result_to_dict
from repro.experiments.runner import _registry, main

RESULTS = Path(__file__).resolve().parent.parent / "results"


class TestExport:
    def test_dataclass_tree_serialises(self):
        from repro.experiments.figure5 import CompressionRow, Figure5Result

        row = CompressionRow(
            program="x",
            original_bytes=100,
            unix_compress=0.5,
            traditional_huffman=0.7,
            bounded_huffman=0.7,
            preselected_huffman=0.72,
        )
        result = Figure5Result(rows=(row,), weighted=row)
        data = result_to_dict(result)
        assert data["rows"][0]["program"] == "x"
        assert data["weighted"]["unix_compress"] == 0.5

    def test_dict_keys_stringified(self):
        from repro.experiments.tables9_10 import CLBRow

        row = CLBRow(
            program="p", memory="eprom", cache_bytes=256,
            relative_performance={16: 1.0, 8: 1.01},
        )
        data = result_to_dict(row)
        assert data["relative_performance"] == {"16": 1.0, "8": 1.01}

    def test_numpy_scalars_handled(self):
        import numpy as np

        assert result_to_dict(np.float64(1.5)) == 1.5
        assert result_to_dict([np.int64(3)]) == [3]

    def test_export_writes_both_files(self, tmp_path):
        from repro.experiments.dense_isa import run_dense_isa

        result = run_dense_isa(programs=("eightq",))
        json_path, text_path = export_result(result, "dense-isa", tmp_path)
        payload = json.loads(json_path.read_text())
        assert payload["rows"][0]["program"] == "eightq"
        assert "Dense ISA" in text_path.read_text()


class TestRunnerCLI:
    def test_runs_named_experiment(self, capsys):
        assert main(["dense-isa"]) == 0
        out = capsys.readouterr().out
        assert "Dense-ISA alternative" in out
        assert "completed in" in out

    def test_output_dir(self, tmp_path, capsys):
        assert main(["dense-isa", "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "dense-isa.json").exists()
        assert (tmp_path / "dense-isa.txt").exists()

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["figure42"])

    def test_duplicate_names_run_once(self, capsys):
        # Regression: duplicated CLI arguments used to run the same
        # experiment twice.
        assert main(["dense-isa", "dense-isa"]) == 0
        out = capsys.readouterr().out
        assert out.count("completed in") == 1

    def test_missing_output_dir_created(self, tmp_path, capsys):
        # Regression: a nonexistent --output-dir used to crash the run.
        nested = tmp_path / "does" / "not" / "exist"
        assert main(["dense-isa", "--output-dir", str(nested)]) == 0
        assert (nested / "dense-isa.json").exists()

    def test_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            main(["dense-isa", "--jobs", "0"])

    def test_metrics_dump(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["dense-isa", "--metrics", str(metrics_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["schema"] == "ccrp-metrics/2"
        assert payload["jobs"] == 1
        assert "dense-isa" in payload["experiments"]
        assert payload["experiments"]["dense-isa"]["elapsed_seconds"] > 0
        assert "experiment.dense-isa" in payload["stages"]

    def test_results_holds_the_exports_of_every_experiment(self):
        # CI compares every file of results/ with a cold and a warm
        # ``all``; an experiment without committed exports would escape it.
        expected = {
            f"{name}.{suffix}" for name in _registry() for suffix in ("json", "txt")
        }
        assert {path.name for path in RESULTS.iterdir()} == expected

    def test_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        from repro.core import artifacts

        monkeypatch.setenv(artifacts.ENV_CACHE_DIR, str(tmp_path / "cache"))
        metrics_path = tmp_path / "metrics.json"
        assert main(["dense-isa", "--no-cache", "--metrics", str(metrics_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["cache"]["enabled"] is False
        assert not list((tmp_path / "cache").rglob("*.pkl"))
        assert artifacts.cache_enabled()  # restored after the run


class TestParallelRunner:
    def test_jobs_output_byte_identical_to_serial(self, tmp_path, capsys):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        metrics_path = tmp_path / "metrics.json"
        assert main(["figure5", "dense-isa", "--output-dir", str(serial_dir)]) == 0
        assert (
            main(
                [
                    "figure5",
                    "dense-isa",
                    "--jobs",
                    "2",
                    "--output-dir",
                    str(parallel_dir),
                    "--metrics",
                    str(metrics_path),
                ]
            )
            == 0
        )
        for name in ("figure5", "dense-isa"):
            serial = (serial_dir / f"{name}.json").read_bytes()
            parallel = (parallel_dir / f"{name}.json").read_bytes()
            assert serial == parallel
        out = capsys.readouterr().out
        # Output order follows the requested order, not completion order.
        assert out.index("figure5 completed") < out.index("dense-isa completed")
        payload = json.loads(metrics_path.read_text())
        assert payload["jobs"] == 2
        # Worker metrics were merged back into the parent registry.
        assert set(payload["experiments"]) == {"figure5", "dense-isa"}
        assert any(stage.startswith("experiment.") for stage in payload["stages"])
