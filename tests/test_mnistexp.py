"""Tests for the mask search: config checks, workers, the biased QAOA target."""

import io

import pytest

from blockmc import mnistexp, qaoa
from blockmc.errors import ConfigError
from blockmc.features import biased_angle_for_target_weight
from conftest import write_synthetic_idx
from test_pipeline import all_artifact_bytes


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
            {"kernels": ["local-kawasaki"]},
            {"kernels": ["global-kawasaki", "global-kawasaki"]},
            {"biased_target_weight": 2.0},
        ],
        ids=["repeats", "stop-step", "no-stop-steps", "kernel", "kernel-twice",
             "top-level-biased-target"],
    )
    def test_rejected(self, doc):
        with pytest.raises(ConfigError):
            mnistexp.mnist_config_from_dict(doc)


class TestMaskSearch:
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
            assert before == biased_angle_for_target_weight(size, 4 * 5 / n_pixels)
            assert got == biased_angle_for_target_weight(size, 1.0)
            assert got != before
