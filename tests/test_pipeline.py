"""Tests for the staged pipeline: caching, determinism, stage pruning."""

import filecmp
import io
import json
from pathlib import Path

import numpy as np
import pytest

from blockmc import analysis, mcmc, pipeline, qubo
from blockmc.errors import ConfigError
from blockmc.streams import stream


def tiny_config(**overrides):
    doc = {
        "instance": {"n": 16, "degree": 3, "seed": 1},
        "k": 8,
        "beta_pi": 0.5,
        "partition": {"block_size": 4, "seed": 2},
        "qaoa": {"p": 2, "restarts": 1, "max_evals_per_restart": 120,
                 "shots_per_angle": 300, "seed": 3},
        "made": {"epochs": 8, "seed": 4},
        "mcmc": {"kernels": ["block-surrogate", "global-kawasaki", "local-kawasaki"],
                 "steps": 1500, "pairs": 2, "seed": 5},
        "analysis": {"max_lag": 300},
    }
    doc.update(overrides)
    return pipeline.config_from_dict(doc)


STAGES = ("instance", "partition", "qaoa", "made", "mcmc", "analysis")


def all_artifact_bytes(out):
    """Map of relative path -> bytes for every artifact in a run dir."""
    out = Path(out)
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.config_from_dict({"nope": 1})
        with pytest.raises(ConfigError):
            pipeline.config_from_dict({"qaoa": {"nope": 1}})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.config_from_dict({"mcmc": {"kernels": ["bogus"]}})

    def test_reseed_deterministic(self):
        a = pipeline.reseed_config(tiny_config(), 99)
        b = pipeline.reseed_config(tiny_config(), 99)
        assert a.instance.seed == b.instance.seed
        assert a.mcmc.seed == b.mcmc.seed
        c = pipeline.reseed_config(tiny_config(), 100)
        assert c.instance.seed != a.instance.seed

    def test_default_k_is_half(self):
        cfg = pipeline.config_from_dict({"instance": {"n": 20}})
        assert cfg.resolved_k(20) == 10

    @pytest.mark.parametrize(
        "doc",
        [
            {"mcmc": {"steps": 0}},
            {"mcmc": {"pairs": 0}},
            {"mcmc": {"thin": 0}},
            {"partition": {"block_size": 0}},
            {"instance": {"n": 0}},
            {"instance": {"n": 12}, "k": 40},
            {"k": "8"},
            {"instance": {"n": 12}, "partition": {"block_size": 40}},
            {"mcmc": {"kernels": ["global-kawasaki", "global-kawasaki"]}},
        ],
        ids=["steps", "pairs", "thin", "block-size", "n", "k-above-n", "k-not-int",
             "block-size-above-n", "kernel-twice"],
    )
    def test_out_of_range_value_rejected(self, doc):
        with pytest.raises(ConfigError):
            pipeline.config_from_dict(doc)

    def test_size_limits_wait_for_a_file_instance(self):
        """n of a file instance is known only once it is read."""
        cfg = pipeline.config_from_dict(
            {"instance": {"source": "file", "path": "x.json", "n": 4}, "k": 40}
        )
        assert cfg.k == 40


class TestPipelineRun:
    def test_full_pipeline_artifacts(self, tmp_path):
        cfg = tiny_config()
        manifest = pipeline.run_pipeline(cfg, tmp_path / "run", log=io.StringIO())
        expected_stages = {"instance", "partition", "qaoa", "made", "mcmc", "analysis"}
        assert set(manifest.stages) == expected_stages
        for entry in manifest.stages.values():
            for p in entry["artifacts"]:
                assert (tmp_path / "run" / p).exists()
        result = json.loads((tmp_path / "run" / "analysis/result.json").read_text())
        assert set(result["kernels"]) == {
            "block-surrogate", "global-kawasaki", "local-kawasaki"
        }
        for e in result["kernels"].values():
            assert e["tau"] >= 0.0

    def test_forced_run_builds_each_stage_once(self, tmp_path):
        log = io.StringIO()
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", force=True, log=log).run()
        lines = log.getvalue().splitlines()
        assert [line.split(":")[0] for line in lines] == [f"stage {s}" for s in STAGES]
        assert not any(line.endswith(": cached") for line in lines)

    def test_rerun_loads_each_stage_once(self, tmp_path):
        pipeline.run_pipeline(tiny_config(), tmp_path / "run", log=io.StringIO())
        log = io.StringIO()
        pipeline.run_pipeline(tiny_config(), tmp_path / "run", log=log)
        assert sorted(log.getvalue().splitlines()) == sorted(f"stage {s}: cached" for s in STAGES)

    def test_rerun_uses_cache(self, tmp_path):
        cfg = tiny_config()
        pipeline.run_pipeline(cfg, tmp_path / "run", log=io.StringIO())
        log = io.StringIO()
        pipeline.run_pipeline(cfg, tmp_path / "run", log=log)
        messages = log.getvalue()
        for stage in ("instance", "partition", "qaoa", "made", "mcmc", "analysis"):
            assert f"stage {stage}: cached" in messages

    def test_bit_identical_reruns(self, tmp_path):
        """Same config + seeds into two fresh dirs: every artifact matches."""
        cfg = tiny_config()
        pipeline.run_pipeline(cfg, tmp_path / "a", log=io.StringIO())
        pipeline.run_pipeline(cfg, tmp_path / "b", log=io.StringIO())
        a = all_artifact_bytes(tmp_path / "a")
        b = all_artifact_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"artifact {name} differs between runs"

    def test_kawasaki_only_skips_surrogate_stages(self, tmp_path):
        cfg = tiny_config(mcmc={"kernels": ["global-kawasaki"], "steps": 800,
                                "pairs": 2, "seed": 5})
        manifest = pipeline.run_pipeline(cfg, tmp_path / "run", log=io.StringIO())
        assert "qaoa" not in manifest.stages
        assert "made" not in manifest.stages
        assert not (tmp_path / "run" / "qaoa").exists()

    def test_config_change_invalidates_downstream(self, tmp_path):
        cfg = tiny_config()
        pipeline.run_pipeline(cfg, tmp_path / "run", log=io.StringIO())
        cfg.mcmc.steps = 2000
        log = io.StringIO()
        pipeline.run_pipeline(cfg, tmp_path / "run", log=log)
        messages = log.getvalue()
        assert "stage made: cached" in messages
        assert "stage mcmc: cached" not in messages

    def test_workers_do_not_change_artifacts(self, tmp_path):
        cfg = tiny_config()
        pipeline.run_pipeline(cfg, tmp_path / "serial", log=io.StringIO())
        cfg2 = tiny_config(workers=2)
        pipeline.run_pipeline(cfg2, tmp_path / "parallel", log=io.StringIO())
        a = all_artifact_bytes(tmp_path / "serial")
        b = all_artifact_bytes(tmp_path / "parallel")
        del a["manifest.json"], b["manifest.json"]  # differs via workers field hash
        assert a == b


class TestSweeps:
    def test_sweep_block_size_shape(self, tmp_path):
        cfg = tiny_config(
            mcmc={"kernels": ["block-surrogate", "global-kawasaki"], "steps": 800,
                  "pairs": 2, "seed": 5},
            analysis={"max_lag": 150},
        )
        rows = pipeline.sweep(cfg, "block_size", [2, 4], tmp_path, log=io.StringIO())
        assert len(rows) == 4  # 2 sizes x 2 kernels
        csv = (tmp_path / "sweep_b.csv").read_text().strip().split("\n")
        assert csv[0] == "block_size,kernel,tau,tau_mean,tau_std"
        assert len(csv) == 5

    def test_sweep_system_size_shape(self, tmp_path):
        cfg = tiny_config(
        mcmc={"kernels": ["global-kawasaki"], "steps": 800, "pairs": 2, "seed": 5},
            analysis={"max_lag": 150},
        )
        rows = pipeline.sweep(cfg, "n", [12, 16], tmp_path, log=io.StringIO())
        assert len(rows) == 2
        assert {r["n"] for r in rows} == {12, 16}
        assert (tmp_path / "sweep_n.csv").exists()


class TestAnalyzeTracesUnits:
    def test_thinned_tau_is_per_step(self, tmp_path):
        """At thin=2 the reported rates are the per-sample fits halved and the
        windows are in step lags."""
        inst = qubo.gen_regular_instance(16, 3, seed=7)
        cfg = mcmc.KernelConfig("local-kawasaki", 0.5)
        chains = []
        for pair in range(2):
            pair_chains = []
            for tag in range(2):
                init = np.zeros(16, dtype=np.uint8)
                init[stream(8, pair, tag).permutation(16)[:8]] = 1
                pair_chains.append(
                    mcmc.run_chain(inst, 8, cfg, steps=6000, init=init, seed=10 * pair + tag, thin=2)
                )
            chains.append(tuple(pair_chains))
        result = pipeline.analyze_traces(
            {"local-kawasaki": chains}, max_lag=300, cutoff=0.05, burn_fraction=0.1,
            out_dir=tmp_path,
        )
        acs = [analysis.pair_autocorrelation(a, b, 300, 0.1) for a, b in chains]
        per_sample = analysis.fit_decay_rate(analysis.mean_autocorrelation(acs), cutoff=0.05)
        pair_rates = [analysis.fit_decay_rate(ac, cutoff=0.05).rate for ac in acs]
        e = result["kernels"]["local-kawasaki"]
        assert per_sample.rate > 0.0
        assert e["tau"] == per_sample.rate / 2
        assert e["fit_window"] == [2 * per_sample.fit_window[0], 2 * per_sample.fit_window[1]]
        assert e["tau_mean"] == pytest.approx(np.mean(pair_rates) / 2, rel=1e-12)
        assert e["tau_std"] == pytest.approx(np.std(pair_rates, ddof=1) / 2, rel=1e-12)
        lags = (tmp_path / "rho_local-kawasaki.csv").read_text().split("\n")[1:4]
        assert [row.split(",")[0] for row in lags] == ["0", "2", "4"]
