"""Tests for the CLI: subcommands, exit codes, end-to-end mask search."""

import json

import pytest

from blockmc.cli import main
from conftest import write_synthetic_idx


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tiny_doc(**overrides):
    doc = {
        "instance": {"n": 16, "degree": 3, "seed": 1},
        "k": 8,
        "partition": {"block_size": 4, "seed": 2},
        "qaoa": {"p": 1, "restarts": 1, "max_evals_per_restart": 80,
                 "shots_per_angle": 200, "seed": 3},
        "made": {"epochs": 5, "seed": 4},
        "mcmc": {"kernels": ["global-kawasaki"], "steps": 600, "pairs": 2, "seed": 5},
        "analysis": {"max_lag": 120},
    }
    doc.update(overrides)
    return doc


class TestStageCommands:
    def test_generate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "instance.json").exists()
        assert "edges=24" in capsys.readouterr().out

    def test_partition_prints_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        assert main(["partition", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "p1-blocks-met" in out
        assert "min=" in out

    def test_pipeline_and_analyze(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tiny_doc())
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "global-kawasaki: tau=" in out


class TestExitCodes:
    def test_missing_config_is_2(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_bad_config_field_is_2(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus": 1})
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_config_value_is_2(self, tmp_path):
        cfg = write_config(tmp_path, tiny_doc(k=40))
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_config_not_an_object_is_2(self, tmp_path):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_partition_file_is_3(self, tmp_path):
        cfg = write_config(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
        (out / "partition.json").write_text('{"p1": 3}')
        assert main(["partition", "--config", cfg, "--out", str(out)]) == 3

    def test_corrupt_instance_file_is_3(self, tmp_path):
        bad = tmp_path / "inst.json"
        bad.write_text("{not json")
        cfg = write_config(
            tmp_path, tiny_doc(instance={"source": "file", "path": str(bad)})
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_resource_limit_is_4(self, tmp_path):
        doc = tiny_doc(
            instance={"n": 60, "degree": 3, "seed": 1},
            k=30,
            partition={"block_size": 30, "seed": 2},
            mcmc={"kernels": ["block-surrogate"], "steps": 100, "pairs": 1, "seed": 5},
        )
        cfg = write_config(tmp_path, doc)
        assert main(["qaoa", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    def test_sweep_without_values_is_2(self, tmp_path):
        cfg = write_config(tmp_path, tiny_doc())
        assert main(["sweep-n", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSweepCommands:
    def test_sweep_b(self, tmp_path, capsys):
        doc = tiny_doc(
            mcmc={"kernels": ["global-kawasaki"], "steps": 500, "pairs": 2, "seed": 5},
            sweep={"block_sizes": [4]},
        )
        cfg = write_config(tmp_path, doc)
        assert main(["sweep-b", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "sweep_b.csv").exists()
        assert "|B|=4" in capsys.readouterr().out


class TestMnistCommand:
    def test_end_to_end_tiny(self, tmp_path, capsys):
        paths = write_synthetic_idx(tmp_path, n_train=400, n_test=150, seed=3)
        doc = {
            **paths,
            "downsample_factor": 2,
            "k": 6,
            "beta_pi": 50.0,
            "block_size": 5,
            "steps": 120,
            "stop_steps": [50, 120],
            "repeats": 2,
            "random_masks": 3,
            "qaoa": {"p": 1, "restarts": 1, "max_evals_per_restart": 60,
                     "shots_per_angle": 200, "seed": 3},
            "made": {"epochs": 5, "seed": 4},
            "classifier": {"iterations": 120},
            "seed": 9,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "mnist"
        assert main(["mnist", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["kernels"]) == {"block-surrogate", "global-kawasaki"}
        assert "random" in report["baselines"]
        assert (out / "best_energy_block-surrogate.csv").exists()
        assert (out / "masks" / "linear_terms.txt").exists()
        printed = capsys.readouterr().out
        assert "accuracy_mean" in printed

    def test_truncated_idx_is_3(self, tmp_path):
        paths = write_synthetic_idx(tmp_path, n_train=50, n_test=20, seed=3)
        with open(paths["train_images"], "r+b") as f:
            f.truncate(100)
        doc = {**paths, "k": 4, "block_size": 4, "steps": 50, "stop_steps": [50],
               "repeats": 1, "random_masks": 2}
        cfg = write_config(tmp_path, doc)
        assert main(["mnist", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
