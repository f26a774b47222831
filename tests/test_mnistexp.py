"""Tests for the mask search: config checks, workers, the biased QAOA target,
the stage cache."""

import dataclasses
import io

import numpy as np
import pytest

from blockmc import analysis, idx, made, mnistexp, pipeline, qaoa
from blockmc.errors import ConfigError, FormatError
from blockmc.qubo import random_weight_k_config
from blockmc.streams import derive_seed, stream
from conftest import write_synthetic_idx
from test_analysis import fake_trace
from test_pipeline import all_artifact_bytes, check_range_ends, range_cases, record_chains


def tiny_mask_config(paths, **overrides):
    doc = {
        **paths,
        "downsample_factor": 4,
        "k": 4,
        "beta_pi": 50.0,
        "block_size": 5,
        "steps": 60,
        "stop_steps": [30, 60],
        "repeats": 2,
        "random_masks": 2,
        "qaoa": {"p": 1, "restarts": 1, "max_evals_per_restart": 20,
                 "shots_per_angle": 100, "seed": 3},
        "made": {"epochs": 3, "seed": 4},
        "classifier": {"iterations": 20},
        "seed": 9,
    }
    doc.update(overrides)
    return mnistexp.mnist_config_from_dict(doc)


@pytest.fixture
def idx_paths(tmp_path):
    return write_synthetic_idx(tmp_path, n_train=200, n_test=60, seed=3)


class TestMaskConfig:
    @pytest.mark.parametrize(
        "doc",
        [
            {"repeats": 0},
            {"stop_steps": [0, 50]},
            {"stop_steps": []},
            {"stop_steps": [50, 50]},
            {"kernels": ["local-kawasaki"]},
            {"kernels": ["global-kawasaki", "global-kawasaki"]},
            {"biased_target_weight": 2.0},
            {"beta_pi": "hot"},
            {"beta_pi": float("nan")},
            {"kernels": "global-kawasaki"},
            {"stop_steps": 50},
            {"stop_steps": [50, "3000"]},
            {"limit_train": "100"},
            {"edge_threshold": None},
            {"train_images": 3},
            {"qaoa": {"p": 1.5}},
            {"classifier": {"iterations": True}},
            {"qaoa": {"p": 0}},
            {"qaoa": {"restarts": 0}},
            {"qaoa": {"max_evals_per_restart": 0}},
            {"qaoa": {"shots_per_angle": 0}},
            {"qaoa": {"biased_target_weight": -3.0}},
            {"made": {"epochs": 0}},
            {"made": {"batch_size": 0}},
            {"made": {"learning_rate": -1.0}},
            {"made": {"validation_fraction": 0.9}},
            {"made": {"widths": []}},
            {"limit_train": 0},
            {"limit_train": -5990},
            {"limit_test": 0},
            {"downsample_factor": 0},
            {"downsample_factor": -2},
            {"binarize_threshold": -1},
            {"binarize_threshold": 256},
            {"random_masks": 0},
            {"classifier": {"iterations": 0}},
            {"classifier": {"learning_rate": 0.0}},
            {"classifier": {"learning_rate": -0.5}},
            {"classifier": {"reg_strength": -1e-4}},
            {"kernels": []},
        ],
        ids=["repeats", "stop-step", "no-stop-steps", "stop-step-twice", "kernel", "kernel-twice",
             "top-level-biased-target", "beta-not-a-number", "beta-nan", "kernels-str",
             "stop-steps-int", "stop-step-str", "limit-str", "threshold-null", "path-not-str",
             "qaoa-p-float", "iterations-bool", "qaoa-p-zero", "restarts-zero", "max-evals-zero",
             "shots-zero", "target-weight-negative", "epochs-zero", "batch-size-zero",
             "learning-rate-negative", "validation-fraction-above-half", "widths-empty",
             "limit-train-zero", "limit-train-negative", "limit-test-zero", "downsample-zero",
             "downsample-negative", "threshold-below-0", "threshold-above-255", "random-masks-zero",
             "classifier-iterations-zero", "classifier-learning-rate-zero",
             "classifier-learning-rate-negative", "classifier-reg-negative", "kernels-empty"],
    )
    def test_rejected(self, doc):
        with pytest.raises(ConfigError):
            mnistexp.mnist_config_from_dict(doc)

    def test_default_config_round_trips_through_the_loader(self):
        """The bench sends ``asdict`` of a config back through the loader."""
        cfg = mnistexp.MnistConfig()
        assert mnistexp.mnist_config_from_dict(dataclasses.asdict(cfg)) == cfg

    @pytest.mark.parametrize("path, outside, boundary", range_cases(mnistexp.MnistConfig))
    def test_declared_range_is_checked_at_its_ends(self, path, outside, boundary):
        check_range_ends(mnistexp.mnist_config_from_dict, mnistexp.MnistConfig, path, outside, boundary)


class TestMaskSearch:
    @pytest.mark.parametrize(
        "overrides", [{"block_size": 100}, {"k": 80}, {"k": 49}],
        ids=["block-size-above-n", "k-above-n", "k-equals-n"],
    )
    def test_sizes_checked_against_pixel_count(self, tmp_path, idx_paths, overrides):
        """downsample_factor 4 leaves 49 pixels."""
        cfg = tiny_mask_config(idx_paths, **overrides)
        with pytest.raises(ConfigError, match="49 pixels"):
            mnistexp.run_mask_search(cfg, tmp_path / "out", log=io.StringIO())

    def test_search_leaves_no_temporary_file(self, tmp_path, idx_paths):
        mnistexp.run_mask_search(tiny_mask_config(idx_paths), tmp_path / "out", log=io.StringIO())
        assert (tmp_path / "out/masks/linear_terms.txt").is_file()
        assert not list((tmp_path / "out").rglob("*.tmp"))

    def test_chain_starts_and_seeds_follow_the_search_scheme(self, tmp_path, idx_paths, monkeypatch):
        """Run r of the i-th kernel starts at the weight-k draw of
        stream(seed, 50, r) and runs unthinned on derive_seed(seed, i, r)."""
        calls = record_chains(monkeypatch)
        mnistexp.run_mask_search(tiny_mask_config(idx_paths), tmp_path / "out", log=io.StringIO())
        assert calls == [
            (kernel, random_weight_k_config(49, 4, stream(9, 50, r)).tolist(), derive_seed(9, i, r), 60, 1)
            for i, kernel in enumerate(mnistexp.SEARCH_KERNELS) for r in range(2)
        ]

    def test_workers_do_not_change_artifacts(self, tmp_path, idx_paths):
        for workers, name in ((1, "serial"), (2, "parallel")):
            cfg = tiny_mask_config(idx_paths, workers=workers)
            mnistexp.run_mask_search(cfg, tmp_path / name, log=io.StringIO())
        assert all_artifact_bytes(tmp_path / "serial") == all_artifact_bytes(tmp_path / "parallel")

    def test_qaoa_biased_target_weight_sets_the_training_angle(
        self, tmp_path, idx_paths, monkeypatch
    ):
        """Unset, the biased angle aims at weight K*|B|/N; set, at its value."""
        seen = []
        angles = qaoa.default_training_angles

        def recording(size, biased_angle=None):
            seen.append((size, biased_angle))
            return angles(size, biased_angle=biased_angle)

        monkeypatch.setattr(qaoa, "default_training_angles", recording)
        search = dict(kernels=["block-surrogate"], repeats=1, random_masks=1)
        report = mnistexp.run_mask_search(
            tiny_mask_config(idx_paths, **search), tmp_path / "default", log=io.StringIO()
        )
        n_pixels = report["n_pixels"]
        default = list(seen)
        seen.clear()
        cfg = tiny_mask_config(
            idx_paths, qaoa={"p": 1, "restarts": 1, "max_evals_per_restart": 20,
                             "shots_per_angle": 100, "seed": 3, "biased_target_weight": 1.0},
            **search,
        )
        mnistexp.run_mask_search(cfg, tmp_path / "set", log=io.StringIO())
        assert default and [size for size, _ in seen] == [size for size, _ in default]
        for (size, got), (_, before) in zip(seen, default):
            assert before == qaoa.angle_for_weight(size, 4 * 5 / n_pixels)
            assert got == qaoa.angle_for_weight(size, 1.0)
            assert got != before

    def test_each_distinct_mask_is_scored_once(self, tmp_path, idx_paths, monkeypatch):
        """Eleven masks are scored here (two kernels x two stops x two runs,
        two random, linear terms); two of them coincide."""
        scored = []
        evaluate = mnistexp.evaluate_mask

        def counting(train, test, mask, **options):
            scored.append(mask.tobytes())
            return evaluate(train, test, mask, **options)

        monkeypatch.setattr(mnistexp, "evaluate_mask", counting)
        report = mnistexp.run_mask_search(tiny_mask_config(idx_paths), tmp_path / "out", log=io.StringIO())
        assert len(set(scored)) == len(scored) == 10
        stops = [stop for entry in report["kernels"].values() for stop in entry["stops"].values()]
        baselines = report["baselines"]
        assert sum(len(stop["accuracy"]) for stop in stops) + len(baselines["random"]["accuracy"]) + 1 == 11


def file_states(out):
    """Map of relative path -> (bytes, mtime) for every file in a run dir."""
    return {
        str(p.relative_to(out)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def search(cfg, out, **options):
    """Run the mask search; returns its report and its log lines."""
    log = io.StringIO()
    report = mnistexp.run_mask_search(cfg, out, log=log, **options)
    return report, log.getvalue().splitlines()


def test_mask_search_trains_without_log_likelihoods(tmp_path, idx_paths, monkeypatch):
    """The search reads only the models, so its MADE training computes no row log-likelihood."""
    calls, during = [], []
    row_log_lik = made._row_log_lik
    monkeypatch.setattr(made, "_row_log_lik", lambda *args: calls.append(1) or row_log_lik(*args))

    def train_surrogates(*args, **kwargs):
        before = len(calls)
        trained = pipeline.train_surrogates(*args, **kwargs)
        during.append(len(calls) - before)
        return trained

    monkeypatch.setattr(mnistexp, "train_surrogates", train_surrogates)
    search(tiny_mask_config(idx_paths), tmp_path / "out")
    assert during == [0]
    assert calls  # the chains' sector tables still read the density


class TestMaskSearchCache:
    def test_rerun_reads_the_report_and_writes_nothing(self, tmp_path, idx_paths, monkeypatch):
        cfg = tiny_mask_config(idx_paths)
        first, _ = search(cfg, tmp_path / "out")
        before = file_states(tmp_path / "out")

        def fail(*args, **kwargs):
            raise AssertionError("a cached search computes nothing")

        for name in ("optimize_blocks", "train_surrogates", "evaluate_mask"):
            monkeypatch.setattr(mnistexp, name, fail)
        report, log = search(cfg, tmp_path / "out")
        assert report == first
        assert log == ["stage mask-search: cached"]
        assert file_states(tmp_path / "out") == before

    def test_new_contents_of_one_idx_file_rebuild_the_stage(self, tmp_path, idx_paths):
        cfg = tiny_mask_config(idx_paths)
        first, _ = search(cfg, tmp_path / "out")
        labels = idx.load_idx_labels(idx_paths["train_labels"])
        idx.write_idx_labels(idx_paths["train_labels"], (labels + 1) % 10)
        report, log = search(cfg, tmp_path / "out")
        assert log[-1].startswith("stage mask-search: built")
        assert report != first
        search(cfg, tmp_path / "fresh")
        assert all_artifact_bytes(tmp_path / "out") == all_artifact_bytes(tmp_path / "fresh")

    def test_new_report_format_rebuilds_the_stage(self, tmp_path, idx_paths, monkeypatch):
        cfg = tiny_mask_config(idx_paths)
        search(cfg, tmp_path / "out")
        monkeypatch.setattr(mnistexp, "_FORMAT", 2)
        _, log = search(cfg, tmp_path / "out")
        assert log[-1].startswith("stage mask-search: built")

    def test_edited_mask_file_rebuilds_the_stage_and_is_restored(self, tmp_path, idx_paths):
        cfg = tiny_mask_config(idx_paths)
        search(cfg, tmp_path / "out")
        before = all_artifact_bytes(tmp_path / "out")
        mask = tmp_path / "out/masks/global-kawasaki_stop30_run1.txt"
        mask.write_bytes(mask.read_bytes() + b"\n")
        _, log = search(cfg, tmp_path / "out")
        assert log[-1].startswith("stage mask-search: built")
        assert all_artifact_bytes(tmp_path / "out") == before

    def test_force_rebuilds_the_same_bytes(self, tmp_path, idx_paths):
        cfg = tiny_mask_config(idx_paths)
        search(cfg, tmp_path / "out")
        before = all_artifact_bytes(tmp_path / "out")
        _, log = search(cfg, tmp_path / "out", force=True)
        assert log[-1].startswith("stage mask-search: built")
        assert all_artifact_bytes(tmp_path / "out") == before

    def test_search_without_a_block_kernel_is_cached(self, tmp_path, idx_paths):
        cfg = tiny_mask_config(idx_paths, kernels=["global-kawasaki"])
        first, _ = search(cfg, tmp_path / "out")
        assert not (tmp_path / "out/partition.json").exists()
        report, log = search(cfg, tmp_path / "out")
        assert (report, log) == (first, ["stage mask-search: cached"])

    def test_other_workers_read_the_cache(self, tmp_path, idx_paths):
        search(tiny_mask_config(idx_paths), tmp_path / "out")
        _, log = search(tiny_mask_config(idx_paths, workers=2), tmp_path / "out")
        assert log == ["stage mask-search: cached"]

    def test_corrupt_manifest_is_a_format_error(self, tmp_path, idx_paths):
        cfg = tiny_mask_config(idx_paths)
        search(cfg, tmp_path / "out")
        manifest = tmp_path / "out/manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:-10])
        with pytest.raises(FormatError, match="manifest.json"):
            search(cfg, tmp_path / "out")


def test_best_energy_csv_fields_are_numbers(tmp_path):
    """One column per run, every field a plain number."""
    traces = [fake_trace(np.zeros((5, 3)), energies=np.arange(5.0)[::-1] + r) for r in range(2)]
    analysis.save_best_energy_csv(traces, tmp_path / "best.csv", ["run0", "run1"])
    lines = (tmp_path / "best.csv").read_text().splitlines()
    assert lines[0] == "step,run0,run1"
    assert lines[1:] == [f"{t},{4.0 - t!r},{5.0 - t!r}" for t in range(5)]
