"""Tests for the CLI: subcommands, exit codes, end-to-end mask search."""

import argparse
import json

import pytest

from blockmc import cli, idx, made, mcmc, partition, qaoa, qubo
from blockmc.cli import main
from blockmc.errors import FormatError
from blockmc.streams import derive_seed
from conftest import write_synthetic_idx
from test_pipeline import check_range_ends, range_cases


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

    def test_local_kawasaki_on_an_edgeless_file_instance_is_2(self, tmp_path, capsys):
        """A file instance's edges are known once it is read, so the run stops
        there, before QAOA and MADE."""
        src = tmp_path / "inst.json"
        qubo.save_instance(qubo.QuboInstance(n=8, quad={}, lin=[0.0] * 8), src)
        doc = tiny_doc(instance={"source": "file", "path": str(src)}, k=4, mcmc={"steps": 100, "pairs": 1})
        cfg = write_config(tmp_path, doc)
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: local-kawasaki needs an instance with at least one edge" in capsys.readouterr().err
        assert not (tmp_path / "o" / "qaoa").exists()

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            ("qaoa", {"instance": {"n": 8}, "qaoa": {"p": "x"}}, "qaoa.p"),
            ("generate", {"instance": {"n": 8, "degree": "3"}}, "instance.degree"),
            ("made", {"instance": {"n": 8}, "made": {"epochs": "2"}}, "made.epochs"),
            ("mcmc", {"mcmc": {"kernels": "global-kawasaki"}}, "mcmc.kernels"),
        ],
        ids=["p", "degree", "epochs", "kernels"],
    )
    def test_config_value_of_wrong_type_is_2(self, tmp_path, capsys, command, doc, field):
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: config field {field} must be" in capsys.readouterr().err

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"k": "\xff"}')
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_config_nested_too_deep_is_2(self, tmp_path, capsys):
        """An array nested past the JSON parser's recursion limit is a config error, not a traceback."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: config file {path} is not valid JSON" in capsys.readouterr().err

    def test_config_path_is_a_directory_is_2(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert "cannot be read" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["pipeline", "mnist"])
    def test_out_naming_a_file_is_2(self, tmp_path, capsys, command, under):
        """--out naming a file, or a path under one: exit 2 and one line, not a
        traceback, and the file is left as it was."""
        doc = tiny_doc() if command == "pipeline" else mnist_doc(tmp_path)
        (tmp_path / "o").write_text("kept")
        out = tmp_path / "o" / "run" if under else tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: output directory {out} cannot be made: {tmp_path / 'o'} is not a directory\n"
        )
        assert (tmp_path / "o").read_text() == "kept"

    def test_config_not_an_object_is_2(self, tmp_path):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_partition_file_is_3(self, tmp_path):
        cfg = write_config(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
        (out / "partition.json").write_text('{"p1": 3}')
        assert main(["partition", "--config", cfg, "--out", str(out)]) == 3

    def test_truncated_manifest_is_3(self, tmp_path):
        cfg = write_config(tmp_path, tiny_doc())
        out = tmp_path / "o"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:-10])
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 3
        assert main(["generate", "--config", cfg, "--out", str(out), "--force"]) == 0

    def test_corrupt_instance_file_is_3(self, tmp_path):
        bad = tmp_path / "inst.json"
        bad.write_text("{not json")
        cfg = write_config(
            tmp_path, tiny_doc(instance={"source": "file", "path": str(bad)})
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("partition", {"k": 2, "partition": {"sizes1": [3, 3]}}, "partition.sizes1=[3, 3] must be sizes >= 1"),
            ("partition", {"k": 2, "partition": {"block_size": 8}}, "partition.block_size=8 exceeds n=4"),
            ("mcmc", {"k": 40}, "k=40 is not in [0, n=4]"),
        ],
        ids=["sizes1", "block_size", "k"],
    )
    def test_config_that_misfits_a_file_instance_is_2(self, tmp_path, capsys, command, overrides, message):
        """The n-dependent checks run once the instance stage knows n."""
        src = tmp_path / "inst.csv"
        src.write_text("0,1,0,0\n0,0,1,0\n0,0,0,1\n0,0,0,0\n")
        doc = tiny_doc(instance={"source": "file", "path": str(src)}, **overrides)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "section",
        ["x", 8, [8], {"n_values": 8}, {"n_values": []}, {"n_values": [16, 0]}, {"n_values": [16, 2.5]},
         {"n_values": [True]}, {"n_values": "8"}, {"n_values": [16], "block_sizes": 4}, {"n_vals": [8]},
         {"n_values": [16], "block_sizes": [0]}, {"n_values": [12, 2]}, {"n_values": [12, 12]},
         {"n_values": [16], "block_sizes": [4, 4]}, {"n_values": None}],
    )
    def test_malformed_sweep_section_is_2(self, tmp_path, capsys, section):
        cfg = write_config(tmp_path, tiny_doc(sweep=section))
        assert main(["sweep-n", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, outside, boundary", range_cases(cli.SweepConfig))
    def test_sweep_range_is_checked_at_its_ends(self, path, outside, boundary):
        def loader(section):
            return cli._experiment_config({"sweep": section}, argparse.Namespace(seed=None))

        check_range_ends(loader, cli.SweepConfig, path, outside, boundary, where="sweep.")


def mnist_doc(tmp_path, **overrides):
    paths = write_synthetic_idx(tmp_path, n_train=50, n_test=20, seed=3)
    return {**paths, "downsample_factor": 2, "k": 4, "block_size": 4, "steps": 50, "stop_steps": [50],
            "repeats": 1, "random_masks": 2, "qaoa": {"p": 1, "restarts": 1, "max_evals_per_restart": 60,
            "shots_per_angle": 200}, "made": {"epochs": 5}, **overrides}


class TestOverrides:
    @pytest.mark.parametrize("command", ["pipeline", "mnist"])
    def test_workers_below_one_is_2(self, tmp_path, capsys, command):
        """--workers 0 is refused by the config loader, before any stage runs."""
        if command == "pipeline":
            doc = tiny_doc(mcmc={"kernels": ["block-surrogate"], "steps": 100, "pairs": 1, "seed": 5})
        else:
            doc = mnist_doc(tmp_path)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "0"]) == 2
        assert "config error: workers must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, field",
        [
            *(("pipeline", f"{section}.seed") for section in ("instance", "partition", "qaoa", "made", "mcmc")),
            ("pipeline", "--seed"),
            ("mnist", "seed"),
            ("mnist", "qaoa.seed"),
            ("mnist", "made.seed"),
            ("mnist", "--seed"),
        ],
    )
    def test_negative_seed_is_2(self, tmp_path, capsys, command, field):
        doc = tiny_doc() if command == "pipeline" else mnist_doc(tmp_path)
        flags = []
        if field == "--seed":
            flags = ["--seed", "-1"]
        elif "." in field:
            section = field.split(".")[0]
            doc[section] = {**doc.get(section, {}), "seed": -1}
        else:
            doc["seed"] = -1
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err
        assert field == "--seed" or f"error: {field} must be" in err
        assert not (tmp_path / "o").exists()


    def test_mnist_seed_derives_stage_seeds(self, tmp_path, monkeypatch):
        """--seed reseeds the mask search's QAOA and MADE as it does the tau pipeline's."""
        configs = []
        monkeypatch.setattr(cli, "run_mask_search", lambda cfg, out, force: configs.append(cfg) or {"baselines": {}})
        config = write_config(tmp_path, mnist_doc(tmp_path))
        for seed in (1, 2):
            assert main(["mnist", "--config", config, "--out", str(tmp_path / "o"), "--seed", str(seed)]) == 0
        assert [(c.seed, c.qaoa.seed, c.made.seed) for c in configs] == [
            (s, derive_seed(s, 3), derive_seed(s, 4)) for s in (1, 2)
        ]


class TestFormatUpgrade:
    @pytest.mark.parametrize(
        "module, name, load, first_rebuilt",
        [
            (qaoa, "_SAMPLES_VERSION", lambda out: qaoa.load_sample_set(out / "qaoa/samples_1_0.bin"), "qaoa"),
            (made, "_MODEL_VERSION", lambda out: made.load_model(out / "made/model_1_0.bin"), "made"),
            (mcmc, "_TRACE_VERSION", lambda out: mcmc.load_trace(out / "mcmc/trace_block-surrogate_0_a.bin"),
             "mcmc"),
        ],
        ids=["samples", "model", "trace"],
    )
    def test_previous_version_rebuilds_the_stage(self, tmp_path, capsys, monkeypatch, module, name, load,
                                                 first_rebuilt):
        """A run dir written under the previous format version rebuilds the
        stage whose format changed and every later one, and exits 0."""
        doc = tiny_doc(mcmc={"kernels": ["block-surrogate", "global-kawasaki"], "steps": 600, "pairs": 1, "seed": 5})
        out = tmp_path / "o"
        argv = ["pipeline", "--config", write_config(tmp_path, doc), "--out", str(out)]
        with monkeypatch.context() as m:
            m.setattr(module, name, getattr(module, name) - 1)
            assert main(argv) == 0
        with pytest.raises(FormatError, match="unsupported version"):
            load(out)
        capsys.readouterr()
        assert main(argv) == 0
        stages = ["instance", "partition", "qaoa", "made", "mcmc", "analysis"]
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("stage ")]
        assert [line.endswith(": cached") for line in lines] == [s in stages[: stages.index(first_rebuilt)] for s in stages]
        load(out)

    def test_partition_key_names_the_layout(self, tmp_path, capsys, monkeypatch):
        """A run dir written under another partition.json layout rebuilds the
        partition and every later stage, and exits 0."""
        doc = tiny_doc(mcmc={"kernels": ["block-surrogate", "global-kawasaki"], "steps": 600, "pairs": 1, "seed": 5})
        argv = ["pipeline", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
        with monkeypatch.context() as m:
            m.setattr(partition, "_FORMAT", partition._FORMAT - 1)
            assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("stage ")]
        assert [line.endswith(": cached") for line in lines] == [True, False, False, False, False, False]


class TestFailedFit:
    DOC = {"instance": {"n": 6, "degree": 3}, "beta_pi": 0.0,
           "mcmc": {"kernels": ["global-kawasaki"], "steps": 3000, "pairs": 2},
           "analysis": {"max_lag": 200}}

    def test_analyze_reports_no_tau_and_exits_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.DOC)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "global-kawasaki: tau=n/a (only 1 usable lags" in capsys.readouterr().out
        result = json.loads((tmp_path / "o/analysis/result.json").read_text())
        assert result["kernels"]["global-kawasaki"]["tau"] is None

    def test_short_chains_report_no_tau_and_exit_0(self, tmp_path, capsys):
        """Ten steps leave no lag after burn-in: a null tau, not a traceback."""
        doc = {"instance": {"n": 8, "degree": 3},
               "mcmc": {"kernels": ["global-kawasaki"], "steps": 10, "pairs": 1}}
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "global-kawasaki: tau=n/a (11 recorded samples leave no lag" in capsys.readouterr().out
        entry = json.loads((tmp_path / "o/analysis/result.json").read_text())["kernels"]["global-kawasaki"]
        assert entry["tau"] is None and entry["error"]

    def test_sweep_prints_no_tau(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**self.DOC, "sweep": {"n_values": [6]}})
        assert main(["sweep-n", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "n=6 kernel=global-kawasaki tau=n/a" in capsys.readouterr().out
        assert (tmp_path / "o/sweep_n.csv").read_text().splitlines()[1] == "6,global-kawasaki,,,"


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

    @staticmethod
    def file_instance_doc(tmp_path, sweep):
        """A tiny config that reads a 16-variable instance from a file."""
        src = tmp_path / "inst.json"
        qubo.save_instance(qubo.gen_regular_instance(16, 3, seed=1), src)
        return tiny_doc(instance={"source": "file", "path": str(src)}, sweep=sweep)

    def test_sweep_n_over_a_file_instance_is_2(self, tmp_path, capsys):
        """The file fixes n, so no point is run and no directory made."""
        cfg = write_config(tmp_path, self.file_instance_doc(tmp_path, {"n_values": [8, 12]}))
        assert main(["sweep-n", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: cannot sweep n over a file instance" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_b_checks_every_point_against_a_file_instance_first(self, tmp_path, capsys):
        """A block size the file's n cannot hold fails before any point's QAOA runs."""
        doc = self.file_instance_doc(tmp_path, {"block_sizes": [4, 40]})
        doc["mcmc"].update(kernels=["block-surrogate"], steps=200, pairs=1)
        cfg = write_config(tmp_path, doc)
        assert main(["sweep-b", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config error: partition.block_size=40 exceeds n=16" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*/qaoa"))


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

    def test_rerun_is_cached_and_force_rebuilds(self, tmp_path, capsys):
        """The second run reads the finished one; --force builds it again."""
        argv = ["mnist", "--config", write_config(tmp_path, mnist_doc(tmp_path)), "--out", str(tmp_path / "o")]
        printed = []
        for flags, stage in (([], "built in"), ([], "cached"), (["--force"], "built in")):
            assert main(argv + flags) == 0
            out, err = capsys.readouterr()
            assert f"stage mask-search: {stage}" in err
            printed.append(out)
        assert printed[0] == printed[1] == printed[2]

    def test_truncated_manifest_is_3(self, tmp_path):
        argv = ["mnist", "--config", write_config(tmp_path, mnist_doc(tmp_path)), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        manifest = tmp_path / "o/manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:-10])
        assert main(argv) == 3
        assert main(argv + ["--force"]) == 0

    @pytest.mark.parametrize(
        "factor, n_test, test_step, message",
        [(3, 20, 2, "downsample_factor=3 does not divide the 14x14 images"),
         (1, 0, 2, "test-images.idx holds no images"),
         (1, 20, 4, "{train_images} holds 14x14 images but {test_images} holds 7x7")],
        ids=["factor-does-not-divide", "empty-split", "shape-mismatch"],
    )
    def test_unusable_dataset_is_2(self, tmp_path, capsys, factor, n_test, test_step, message):
        """On 14x14 train images: exit 2 and no output dir, not a traceback."""
        doc = mnist_doc(tmp_path, downsample_factor=factor)
        for split, count, step in (("train", 50, 2), ("test", n_test, test_step)):
            images = idx.load_idx_images(doc[f"{split}_images"])[:count, ::step, ::step]
            idx.write_idx_images(doc[f"{split}_images"], images)
            idx.write_idx_labels(doc[f"{split}_labels"], idx.load_idx_labels(doc[f"{split}_labels"])[:count])
        assert main(["mnist", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 2
        assert message.format(**doc) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_truncated_idx_is_3(self, tmp_path):
        paths = write_synthetic_idx(tmp_path, n_train=50, n_test=20, seed=3)
        with open(paths["train_images"], "r+b") as f:
            f.truncate(100)
        doc = {**paths, "k": 4, "block_size": 4, "steps": 50, "stop_steps": [50],
               "repeats": 1, "random_masks": 2}
        cfg = write_config(tmp_path, doc)
        assert main(["mnist", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_label_count_that_misfits_its_images_is_3_and_names_both_files(self, tmp_path, capsys):
        doc = mnist_doc(tmp_path)
        idx.write_idx_labels(doc["test_labels"], idx.load_idx_labels(doc["test_labels"])[:19])
        assert main(["mnist", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 3
        message = f"count mismatch: 20 images in {doc['test_images']} vs 19 labels in {doc['test_labels']}"
        assert f"format error: {message}" in capsys.readouterr().err
