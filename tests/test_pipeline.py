"""Tests for the staged pipeline: caching, determinism, stage pruning."""

import dataclasses
import filecmp
import io
import json
import math
import re
import shutil
from dataclasses import replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from blockmc import analysis, mcmc, pipeline, qubo
from blockmc.errors import ConfigError
from blockmc.mnistexp import MnistConfig
from blockmc.streams import derive_seed, stream


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


def _scalar_type(tp):
    """The item type of an annotation: ``int`` for ``list[int] | None``."""
    args = [a for a in get_args(tp) if a is not type(None)]
    return _scalar_type(args[0]) if args else tp


def _ends(rule, scalar):
    """(just outside, accepted boundary) at each bound of a declared rule,
    or for each of its choices."""
    if "choices" in rule:
        return [("?" + rule["choices"][0], choice) for choice in rule["choices"]]
    cases = []
    for op, bound in rule.items():
        if op not in pipeline._BOUNDS:
            continue
        outward = -1 if op[0] == ">" else 1
        if scalar is float:
            bound = float(bound)
            nearby = math.nextafter(bound, outward * math.inf), math.nextafter(bound, -outward * math.inf)
        else:
            nearby = bound + outward, bound - outward
        cases.append((nearby[0], bound) if op.endswith("=") else (bound, nearby[1]))
    return cases


def range_cases(cls, path=()):
    """``pytest.param(path, outside, boundary)`` for each end of every range
    that a field of config dataclass ``cls``, or of one of its sections,
    declares; a list field's values are one-item lists."""
    types = get_type_hints(cls)
    cases = []
    for f in dataclasses.fields(cls):
        tp = types[f.name]
        if dataclasses.is_dataclass(tp):
            cases += range_cases(tp, (*path, f.name))
        elif f.metadata:
            is_list = any(get_origin(t) is list for t in (tp, *get_args(tp)))
            for outside, boundary in _ends(f.metadata, _scalar_type(tp)):
                name = f"{'.'.join((*path, f.name))}={boundary}"
                if is_list:
                    outside, boundary = [outside], [boundary]
                cases.append(pytest.param((*path, f.name), outside, boundary, id=name))
    return cases


def nested(path, value) -> dict:
    """The config document that sets only the field at ``path``."""
    doc = value
    for key in reversed(path):
        doc = {key: doc}
    return doc


def check_range_ends(loader, cls, path, outside, boundary, where=""):
    """A value just outside a field's declared range fails ``loader``
    naming the field's path, and the boundary value fills the field."""
    dotted = where + ".".join(path)
    with pytest.raises(ConfigError, match=rf"^{re.escape(dotted)}(\[0\])? must be "):
        loader(nested(path, outside))
    cfg = pipeline.fill_config(cls(), nested(path, boundary))
    for key in path:
        cfg = getattr(cfg, key)
    assert cfg == boundary


def all_artifact_bytes(out):
    """Map of relative path -> bytes for every artifact in a run dir."""
    out = Path(out)
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def record_chains(monkeypatch) -> list:
    """Wrap ``mcmc.run_chain`` so that each call appends its kernel kind,
    start configuration, seed, steps and thin to the returned list."""
    calls = []
    run_chain = mcmc.run_chain

    def recording(inst, k, kernel, steps, init, seed, thin=1):
        calls.append((kernel.kind, init.tolist(), seed, steps, thin))
        return run_chain(inst, k, kernel, steps, init, seed, thin)

    monkeypatch.setattr(mcmc, "run_chain", recording)
    return calls


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

    def test_reseed_mnist_config(self):
        """The mask search's sections take the tau run's qaoa and made keys; its own seed is the loader's."""
        cfg = pipeline.reseed_config(MnistConfig(), 7)
        assert (cfg.qaoa.seed, cfg.made.seed, cfg.seed) == (derive_seed(7, 3), derive_seed(7, 4), 11)

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
            {"beta_pi": "hot"},
            {"beta_pi": float("inf")},
            {"k": True},
            {"instance": {"n": 8}, "qaoa": {"p": "x"}},
            {"instance": {"n": 8, "degree": "3"}},
            {"instance": {"n": 8}, "made": {"epochs": "2"}},
            {"mcmc": {"kernels": "global-kawasaki"}},
            {"mcmc": {"kernels": ["global-kawasaki", 3]}},
            {"partition": {"sizes1": [4, 4.0]}},
            {"made": {"learning_rate": True}},
            {"made": {"widths": 16}},
            {"qaoa": {"biased_target_weight": "2"}},
            {"instance": {"path": 3}},
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
            {"instance": {"n": 9, "degree": 3}},
            {"instance": {"n": 8, "degree": 8}},
            {"instance": {"n": 8, "degree": -2}},
            {"partition": {"sizes1": [4, 4]}},
            {"instance": {"n": 8}, "partition": {"sizes2": [8, 0]}},
            {"analysis": {"max_lag": 0}},
            {"analysis": {"burn_fraction": 1.5}},
            {"analysis": {"burn_fraction": -0.1}},
            {"analysis": {"cutoff": -1}},
            {"analysis": {"cutoff": 1.0}},
            {"instance": {"source": "gen"}},
            {"instance": {"n": 8}, "k": 0},
            {"instance": {"path": "inst.json"}},
            {"instance": {"n": 3, "degree": 2}, "partition": {"sizes1": [3]}},
            {"instance": {"n": 8, "degree": 0}, "partition": {"block_size": 4}},
            {"mcmc": {"kernels": []}},
        ],
        ids=["steps", "pairs", "thin", "block-size", "n", "k-above-n", "k-not-int",
             "block-size-above-n", "kernel-twice", "beta-not-a-number", "beta-infinite",
             "k-bool", "p-not-int", "degree-str", "epochs-str", "kernels-str", "kernel-not-str",
             "sizes-float", "learning-rate-bool", "widths-not-list", "target-weight-str",
             "path-not-str", "p-zero", "restarts-zero", "max-evals-zero", "shots-zero",
             "target-weight-negative", "epochs-zero", "batch-size-zero", "learning-rate-negative",
             "validation-fraction-above-half", "widths-empty", "degree-odd-stubs", "degree-n",
             "degree-negative", "sizes-sum-not-n", "size-zero", "max-lag-zero", "burn-above-one",
             "burn-negative", "cutoff-negative", "cutoff-one", "source-unknown",
             "k-zero-with-global-kawasaki", "path-with-generated-instance",
             "block-size-above-n-with-sizes2-spread", "local-kawasaki-edgeless", "kernels-empty"],
    )
    def test_out_of_range_value_rejected(self, doc):
        with pytest.raises(ConfigError):
            pipeline.config_from_dict(doc)

    def test_block_size_is_unchecked_when_both_partitions_have_explicit_sizes(self):
        doc = {"instance": {"n": 3, "degree": 2}, "partition": {"sizes1": [3], "sizes2": [3]}}
        assert pipeline.config_from_dict(doc).partition.block_size == 4

    @pytest.mark.parametrize("path, outside, boundary", range_cases(pipeline.ExperimentConfig))
    def test_declared_range_is_checked_at_its_ends(self, path, outside, boundary):
        check_range_ends(pipeline.config_from_dict, pipeline.ExperimentConfig, path, outside, boundary)

    def test_default_config_round_trips_through_the_loader(self):
        """The bench sends ``asdict`` of a config back through the loader."""
        cfg = pipeline.ExperimentConfig()
        assert pipeline.config_from_dict(dataclasses.asdict(cfg)) == cfg

    def test_default_config_hash_is_pinned(self):
        """A renamed field or a changed default changes every stage key, and
        so leaves every cached run unused."""
        assert pipeline._hash(dataclasses.asdict(pipeline.ExperimentConfig())) == "ec8d4a185206a056"

    def test_type_error_names_the_field(self):
        with pytest.raises(ConfigError, match=r"qaoa\.p must be int, got 'x'"):
            pipeline.config_from_dict({"qaoa": {"p": "x"}})

    def test_optional_and_float_fields_accept_their_types(self):
        cfg = pipeline.config_from_dict(
            {"k": None, "beta_pi": 1, "partition": {"sizes1": [8, 8]},
             "qaoa": {"biased_target_weight": 2.5}, "made": {"widths": [8]}}
        )
        assert (cfg.k, cfg.beta_pi, cfg.partition.sizes1) == (None, 1, [8, 8])

    def test_size_limits_wait_for_a_file_instance(self):
        """n of a file instance is known only once it is read."""
        cfg = pipeline.config_from_dict(
            {"instance": {"source": "file", "path": "x.json", "n": 4}, "k": 40}
        )
        assert cfg.k == 40


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean")
    pipeline.PipelineRun(tiny_config(), out, log=io.StringIO()).run()
    return out


class TestPipelineRun:
    def test_full_pipeline_artifacts(self, tmp_path):
        cfg = tiny_config()
        stages = pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO()).run()
        expected_stages = {"instance", "partition", "qaoa", "made", "mcmc", "analysis"}
        assert set(stages) == expected_stages
        for entry in stages.values():
            for p in entry["artifacts"]:
                assert (tmp_path / "run" / p).exists()
        result = json.loads((tmp_path / "run" / "analysis/result.json").read_text())
        assert set(result["kernels"]) == {
            "block-surrogate", "global-kawasaki", "local-kawasaki"
        }
        for e in result["kernels"].values():
            assert e["tau"] >= 0.0

    def test_run_leaves_no_temporary_file(self, clean_run):
        assert not list(clean_run.rglob("*.tmp"))

    def test_every_training_curve_field_is_a_number(self, clean_run):
        """Log-likelihoods taken from stacked arrays are written as plain
        numbers, not as np.float64(...)."""
        paths = sorted(clean_run.glob("made/train_*.csv"))
        assert len(paths) == 8
        for path in paths:
            rows = path.read_text().splitlines()[1:]
            assert rows
            for row in rows:
                [float(v) for v in row.split(",")]

    def test_forced_run_builds_each_stage_once(self, tmp_path):
        log = io.StringIO()
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", force=True, log=log).run()
        lines = log.getvalue().splitlines()
        assert [line.split(":")[0] for line in lines] == [f"stage {s}" for s in STAGES]
        assert not any(line.endswith(": cached") for line in lines)

    def test_rerun_loads_each_stage_once(self, tmp_path):
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", log=io.StringIO()).run()
        log = io.StringIO()
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", log=log).run()
        assert sorted(log.getvalue().splitlines()) == sorted(f"stage {s}: cached" for s in STAGES)

    def test_rerun_uses_cache(self, tmp_path):
        cfg = tiny_config()
        pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO()).run()
        log = io.StringIO()
        pipeline.PipelineRun(cfg, tmp_path / "run", log=log).run()
        messages = log.getvalue()
        for stage in ("instance", "partition", "qaoa", "made", "mcmc", "analysis"):
            assert f"stage {stage}: cached" in messages

    def test_bit_identical_reruns(self, tmp_path):
        """Same config + seeds into two fresh dirs: every artifact matches."""
        cfg = tiny_config()
        pipeline.PipelineRun(cfg, tmp_path / "a", log=io.StringIO()).run()
        pipeline.PipelineRun(cfg, tmp_path / "b", log=io.StringIO()).run()
        a = all_artifact_bytes(tmp_path / "a")
        b = all_artifact_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"artifact {name} differs between runs"

    def test_chain_starts_and_seeds_follow_the_tau_scheme(self, tmp_path, monkeypatch):
        """Chain t of pair p of the i-th kernel starts at the weight-k draw of
        stream(mcmc.seed, 100, p, t) and runs on derive_seed(mcmc.seed, i, p, t)."""
        calls = record_chains(monkeypatch)
        kernels = ["block-surrogate", "global-kawasaki", "local-kawasaki"]
        cfg = tiny_config(mcmc={"kernels": kernels, "steps": 40, "pairs": 2, "thin": 2, "seed": 5})
        pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO()).ensure_mcmc()
        assert calls == [
            (kernel, qubo.random_weight_k_config(16, 8, stream(5, 100, pair, t)).tolist(),
             derive_seed(5, i, pair, t), 40, 2)
            for i, kernel in enumerate(kernels) for pair in range(2) for t in range(2)
        ]

    def test_kawasaki_only_skips_surrogate_stages(self, tmp_path):
        cfg = tiny_config(mcmc={"kernels": ["global-kawasaki"], "steps": 800,
                                "pairs": 2, "seed": 5})
        stages = pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO()).run()
        assert "qaoa" not in stages
        assert "made" not in stages
        assert not (tmp_path / "run" / "qaoa").exists()

    def test_config_change_invalidates_downstream(self, tmp_path):
        cfg = tiny_config()
        pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO()).run()
        cfg.mcmc.steps = 2000
        log = io.StringIO()
        pipeline.PipelineRun(cfg, tmp_path / "run", log=log).run()
        messages = log.getvalue()
        assert "stage made: cached" in messages
        assert "stage mcmc: cached" not in messages

    @pytest.mark.parametrize(
        "artifact, offset, first_rebuilt",
        [
            ("instance.json", lambda raw: raw.index(b'"constant":') + 11, "instance"),
            # the low bit of the last sample row is padding at |B|=4: only the sha256 sees it
            ("qaoa/samples_1_0.bin", lambda raw: len(raw) - 1, "qaoa"),
            ("made/model_2_1.bin", lambda raw: len(raw) - 1, "made"),
            # the last byte of energy 10: 43-byte header, 1501 configs of 2 bytes
            ("mcmc/trace_block-surrogate_0_a.bin", lambda raw: 43 + 1501 * 2 + 8 * 10 + 7, "mcmc"),
            ("analysis/result.json", lambda raw: raw.index(b'"tau":') + 6, "analysis"),
        ],
        ids=["instance-constant", "qaoa-row-padding", "made-weight", "mcmc-energy", "analysis-tau"],
    )
    def test_flipped_byte_rebuilds_stage_and_downstream(
        self, tmp_path, clean_run, artifact, offset, first_rebuilt
    ):
        """A flip that leaves the artifact well-formed is caught by its sha256."""
        shutil.copytree(clean_run, tmp_path / "run")
        path = tmp_path / "run" / artifact
        raw = bytearray(path.read_bytes())
        raw[offset(raw)] ^= 1
        path.write_bytes(raw)
        log = io.StringIO()
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", log=log).run()
        rebuilt = STAGES[STAGES.index(first_rebuilt) :]
        lines = log.getvalue().splitlines()
        assert [line.endswith(": cached") for line in lines] == [s not in rebuilt for s in STAGES]
        assert all_artifact_bytes(tmp_path / "run") == all_artifact_bytes(clean_run)

    def test_manifest_with_artifact_lists_rebuilds_every_stage(self, tmp_path, clean_run):
        """Run dirs written before artifacts carried a sha256 are rebuilt once."""
        shutil.copytree(clean_run, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        doc = json.loads(path.read_text())
        for entry in doc["stages"].values():
            entry["artifacts"] = sorted(entry["artifacts"])
        path.write_text(json.dumps(doc))
        log = io.StringIO()
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", log=log).run()
        assert not any(line.endswith(": cached") for line in log.getvalue().splitlines())
        assert all_artifact_bytes(tmp_path / "run") == all_artifact_bytes(clean_run)

    def test_entry_naming_fewer_files_than_its_stage_is_rebuilt(self, tmp_path, clean_run):
        """A trace missing from the mcmc entry, then overwritten with another
        chain's valid trace, is not trusted: mcmc and analysis are rebuilt."""
        shutil.copytree(clean_run, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        doc = json.loads(path.read_text())
        trace = "mcmc/trace_global-kawasaki_0_a.bin"
        del doc["stages"]["mcmc"]["artifacts"][trace]
        del doc["stages"]["analysis"]
        path.write_text(json.dumps(doc))
        shutil.copyfile(tmp_path / "run/mcmc/trace_global-kawasaki_1_a.bin", tmp_path / "run" / trace)
        log = io.StringIO()
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", log=log).run()
        lines = log.getvalue().splitlines()
        assert [line.endswith(": cached") for line in lines] == [s not in ("mcmc", "analysis") for s in STAGES]
        assert all_artifact_bytes(tmp_path / "run") == all_artifact_bytes(clean_run)

    def test_manifest_with_a_config_hash_reuses_every_stage(self, tmp_path, clean_run):
        """A run dir whose manifest also holds the ``config_hash`` that earlier
        versions wrote is reused stage for stage."""
        shutil.copytree(clean_run, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        stages = json.loads(path.read_text())["stages"]
        config_hash = pipeline._hash(dataclasses.asdict(tiny_config()))
        path.write_text(json.dumps({"config_hash": config_hash, "stages": stages}, sort_keys=True))
        log = io.StringIO()
        pipeline.PipelineRun(tiny_config(), tmp_path / "run", log=log).run()
        assert log.getvalue().splitlines() == [f"stage {s}: cached" for s in STAGES]

    def test_edited_instance_file_rebuilds_the_instance(self, tmp_path):
        """The key of a file instance holds the file's contents, not only its path."""
        src = tmp_path / "inst.json"
        cfg = tiny_config(instance={"source": "file", "path": str(src)})
        qubo.save_instance(qubo.gen_regular_instance(16, 3, seed=1), src)
        pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO()).ensure_instance()
        edited = qubo.gen_regular_instance(16, 3, seed=2)
        qubo.save_instance(edited, src)
        log = io.StringIO()
        inst, _ = pipeline.PipelineRun(cfg, tmp_path / "run", log=log).ensure_instance()
        assert log.getvalue().startswith("stage instance: built")
        assert inst.edge_list == edited.edge_list != qubo.gen_regular_instance(16, 3, seed=1).edge_list

    def test_workers_do_not_change_artifacts(self, tmp_path):
        cfg = tiny_config()
        pipeline.PipelineRun(cfg, tmp_path / "serial", log=io.StringIO()).run()
        cfg2 = tiny_config(workers=2)
        pipeline.PipelineRun(cfg2, tmp_path / "parallel", log=io.StringIO()).run()
        a = all_artifact_bytes(tmp_path / "serial")
        b = all_artifact_bytes(tmp_path / "parallel")
        assert "manifest.json" in a
        assert a == b


class TestStageCache:
    def test_entry_naming_more_files_than_its_stage_is_rebuilt(self, tmp_path):
        """Every recorded file is present and unchanged, but the stage no
        longer writes one of them (a code change under an unchanged key)."""
        for name in "abc":
            (tmp_path / name).write_text(name)
        entry = {"key": "k", "artifacts": {p: pipeline._sha256(tmp_path / p) for p in "abc"}}
        (tmp_path / "manifest.json").write_text(json.dumps({"stages": {"s": entry}}))
        log = io.StringIO()
        cache = pipeline.StageCache(tmp_path, ("s",), log=log)
        assert cache._stage("s", "k", ["a", "b"], lambda: "loaded", lambda: "built") == "built"
        assert log.getvalue().startswith("stage s: built")
        assert set(pipeline.load_stages(tmp_path / "manifest.json")["s"]["artifacts"]) == {"a", "b"}


class TestFailedFit:
    # beta_pi 0 on n=6: global Kawasaki decorrelates within one lag, local
    # Kawasaki does not
    DOC = {"instance": {"n": 6, "degree": 3}, "beta_pi": 0.0,
           "mcmc": {"kernels": ["global-kawasaki", "local-kawasaki"], "steps": 3000, "pairs": 2},
           "analysis": {"max_lag": 200}}

    def test_one_failed_fit_leaves_the_others(self, tmp_path):
        cfg = pipeline.config_from_dict(self.DOC)
        run = pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO())
        result, _ = run.ensure_analysis()
        failed, fitted = result["kernels"]["global-kawasaki"], result["kernels"]["local-kawasaki"]
        assert "usable lags" in failed["error"]
        for name in ("tau", "amplitude", "fit_window", "residual", "tau_mean", "tau_std"):
            assert failed[name] is None
        assert fitted["tau"] > 0.0 and fitted["tau_mean"] > 0.0 and "error" not in fitted
        assert result["ratios"] == {}
        rows = (tmp_path / "run/analysis/tau_summary.csv").read_text().splitlines()
        assert rows[1] == "global-kawasaki,,,,2,"
        assert rows[2].startswith(f"local-kawasaki,{fitted['tau']!r},")
        # the fitted kernel's entry does not depend on the failed one
        traces, _ = run.ensure_mcmc()
        alone = pipeline.analyze_traces(
            {"local-kawasaki": traces["local-kawasaki"]}, max_lag=200, cutoff=0.05,
            burn_fraction=0.1,
        )
        assert alone["kernels"]["local-kawasaki"] == fitted

    def test_all_runs_degenerate(self, tmp_path):
        """Chains that never move have no overlap variance, hence no fit."""
        cfg = pipeline.config_from_dict(self.DOC)
        traces, _ = pipeline.PipelineRun(cfg, tmp_path / "run", log=io.StringIO()).ensure_mcmc()
        frozen = [
            tuple(replace(t, configs=np.repeat(t.configs[:1], len(t.configs), axis=0)) for t in pair)
            for pair in traces["global-kawasaki"]
        ]
        result = pipeline.analyze_traces(
            {"frozen": frozen}, max_lag=200, cutoff=0.05, burn_fraction=0.1, out_dir=tmp_path
        )
        assert result["kernels"]["frozen"]["tau"] is None
        assert "degenerate" in result["kernels"]["frozen"]["error"]
        assert (tmp_path / "rho_frozen.csv").read_text() == "lag,rho_mean,rho_std\n"


class TestFanOut:
    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SerialPool)
        assert pipeline.fan_out(str, [3, 1, 2], workers=8) == ["3", "1", "2"]
        assert asked == [3]


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


    @pytest.mark.parametrize("field, values, tag", [("n", [12, 20], "n"), ("block_size", [2, 8], "b")])
    def test_each_point_sets_only_its_axis(self, tmp_path, monkeypatch, field, values, tag):
        """Each point runs in ``<tag><value>`` on the base config with the swept
        field set and the explicit block sizes cleared; a point on n also gets
        an instance seed derived from the value."""
        built = []

        class RecordedRun(pipeline.PipelineRun):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def ensure_instance(self):
                return None, ""

            def ensure_analysis(self):
                return {"kernels": {}}, ""

        monkeypatch.setattr(pipeline, "PipelineRun", RecordedRun)
        base = tiny_config(partition={"block_size": 4, "sizes1": [8, 8], "sizes2": [6, 10], "seed": 2})
        pipeline.sweep(base, field, values, tmp_path, log=io.StringIO())
        assert [run.out for run in built] == [tmp_path / f"{tag}{v}" for v in values]
        for value, run in zip(values, built):
            expected = dataclasses.asdict(base)
            if field == "n":
                expected["instance"].update(n=value, seed=derive_seed(base.instance.seed, value))
            else:
                expected["partition"]["block_size"] = value
            expected["partition"].update(sizes1=None, sizes2=None)
            assert dataclasses.asdict(run.cfg) == expected


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

    def test_ratios_are_tau_mean_quotients_of_fitted_kernels(self):
        """Every ordered pair of fitted kernels, sorted, gets tau_mean[a] /
        tau_mean[b]; a kernel whose fit fails gets no ratio."""
        inst = qubo.gen_regular_instance(16, 3, seed=7)
        init = np.zeros(16, dtype=np.uint8)
        init[:8] = 1

        def pairs(kind, steps):
            cfg = mcmc.KernelConfig(kind, 0.5)
            return [tuple(mcmc.run_chain(inst, 8, cfg, steps, init, seed=10 * p + t) for t in range(2))
                    for p in range(2)]

        result = pipeline.analyze_traces(
            {"local-kawasaki": pairs("local-kawasaki", 3000), "global-kawasaki": pairs("global-kawasaki", 3000),
             "short": pairs("local-kawasaki", 10)},
            max_lag=300, cutoff=0.05, burn_fraction=0.1,
        )
        g, l = (result["kernels"][k]["tau_mean"] for k in ("global-kawasaki", "local-kawasaki"))
        assert g > 0.0 and l > 0.0
        assert result["kernels"]["short"]["tau_mean"] is None
        assert list(result["ratios"].items()) == [
            ("global-kawasaki/local-kawasaki", g / l), ("local-kawasaki/global-kawasaki", l / g)
        ]
