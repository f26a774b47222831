"""Staged experiment pipeline with content-hash caching.

A run executes: instance -> partition -> per-block QAOA -> per-block MADE
-> MCMC ensembles -> analysis, persisting every stage under the output
directory. Each stage is keyed by the hash of its config subsection plus
its upstream keys; re-running with an unchanged key reuses the artifacts
on disk (``--force`` overrides). All artifact files are byte-deterministic
for fixed config and seeds; wall-clock timings go to the log only.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, made, mcmc, qaoa
from .errors import ConfigError
from .features import biased_angle_for_target_weight
from .partition import PartitionPair, build_partition_pair, load_partition_pair, save_partition_pair, spread_block_sizes
from .qubo import (
    QuboInstance,
    gen_regular_instance,
    load_instance,
    load_instance_csv,
    random_weight_k_config,
    save_instance,
)
from .streams import derive_seed, stream


@dataclass
class InstanceConfig:
    source: str = "generate"  # generate | file
    n: int = 16
    degree: int = 3
    seed: int = 1
    path: str | None = None


@dataclass
class PartitionConfig:
    block_size: int = 4
    sizes1: list[int] | None = None
    sizes2: list[int] | None = None
    seed: int = 2


@dataclass
class QaoaConfig:
    p: int = 5
    restarts: int = 4
    max_evals_per_restart: int | None = None
    shots_per_angle: int = 2048
    biased_target_weight: float | None = None
    seed: int = 3


@dataclass
class MadeConfig:
    widths: list[int] | None = None  # default 2 x (4|B|) per block
    learning_rate: float = 0.05
    batch_size: int = 128
    epochs: int = 30
    validation_fraction: float = 0.1
    seed: int = 4


@dataclass
class McmcConfig:
    kernels: list[str] = field(
        default_factory=lambda: ["block-surrogate", "global-kawasaki", "local-kawasaki"]
    )
    steps: int = 30_000
    pairs: int = 4
    thin: int = 1
    seed: int = 5


@dataclass
class AnalysisConfig:
    max_lag: int = 2000
    cutoff: float = 0.05
    burn_fraction: float = 0.1


@dataclass
class ExperimentConfig:
    instance: InstanceConfig = field(default_factory=InstanceConfig)
    k: int | None = None  # default n // 2
    beta_pi: float = 0.5
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    qaoa: QaoaConfig = field(default_factory=QaoaConfig)
    made: MadeConfig = field(default_factory=MadeConfig)
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    workers: int = 1

    def resolved_k(self, n: int) -> int:
        return self.k if self.k is not None else n // 2


_SECTIONS = {
    "instance": InstanceConfig,
    "partition": PartitionConfig,
    "qaoa": QaoaConfig,
    "made": MadeConfig,
    "mcmc": McmcConfig,
    "analysis": AnalysisConfig,
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in doc.items():
        if key in _SECTIONS:
            section = _SECTIONS[key]()
            for k2, v2 in value.items():
                if not hasattr(section, k2):
                    raise ConfigError(f"unknown field {key}.{k2}")
                setattr(section, k2, v2)
            setattr(cfg, key, section)
        elif hasattr(cfg, key):
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"unknown config field {key!r}")
    for kernel in cfg.mcmc.kernels:
        if kernel not in mcmc.KERNEL_KINDS:
            raise ConfigError(f"unknown kernel {kernel!r}")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def reseed_config(cfg: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """Derive all stage seeds from one master seed (CLI --seed)."""
    cfg.instance.seed = derive_seed(master_seed, 1)
    cfg.partition.seed = derive_seed(master_seed, 2)
    cfg.qaoa.seed = derive_seed(master_seed, 3)
    cfg.made.seed = derive_seed(master_seed, 4)
    cfg.mcmc.seed = derive_seed(master_seed, 5)
    return cfg


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


def config_hash(cfg: ExperimentConfig) -> str:
    return _hash(asdict(cfg))


@dataclass
class RunManifest:
    config_hash: str
    stages: dict[str, dict]

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {"config_hash": self.config_hash, "stages": self.stages},
                f,
                sort_keys=True,
                separators=(",", ":"),
            )
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        with open(path) as f:
            doc = json.load(f)
        return cls(config_hash=doc["config_hash"], stages=doc["stages"])


class PipelineRun:
    """One experiment bound to an output directory."""

    def __init__(self, cfg: ExperimentConfig, out, force: bool = False, log=None):
        self.cfg = cfg
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.force = force
        self.log = log if log is not None else sys.stderr
        manifest_path = self.out / "manifest.json"
        if manifest_path.exists() and not force:
            self.manifest = RunManifest.load(manifest_path)
        else:
            self.manifest = RunManifest(config_hash="", stages={})
        self.manifest.config_hash = config_hash(cfg)

    def _say(self, msg: str) -> None:
        print(msg, file=self.log)

    def _cached(self, stage: str, key: str) -> bool:
        if self.force:
            return False
        entry = self.manifest.stages.get(stage)
        if entry is None or entry["key"] != key:
            return False
        return all((self.out / p).exists() for p in entry["artifacts"])

    def _record(self, stage: str, key: str, artifacts: list[str]) -> None:
        self.manifest.stages[stage] = {"key": key, "artifacts": sorted(artifacts)}
        self.manifest.save(self.out / "manifest.json")

    # ------------------------------------------------------------------ #

    def ensure_instance(self) -> tuple[QuboInstance, str]:
        cfg = self.cfg.instance
        key = _hash(asdict(cfg))
        path = "instance.json"
        if self._cached("instance", key):
            self._say("stage instance: cached")
            return load_instance(self.out / path), key
        t0 = time.monotonic()
        if cfg.source == "generate":
            inst = gen_regular_instance(cfg.n, cfg.degree, cfg.seed)
        elif cfg.source == "file":
            if cfg.path is None:
                raise ConfigError("instance.source=file requires instance.path")
            src = Path(cfg.path)
            if not src.exists():
                raise ConfigError(f"instance file not found: {src}")
            inst = load_instance_csv(src) if src.suffix == ".csv" else load_instance(src)
        else:
            raise ConfigError(f"unknown instance source {cfg.source!r}")
        save_instance(inst, self.out / path)
        self._record("instance", key, [path])
        self._say(f"stage instance: built in {time.monotonic() - t0:.2f}s")
        return inst, key

    def ensure_partition(self) -> tuple[PartitionPair, str]:
        inst, up = self.ensure_instance()
        cfg = self.cfg.partition
        key = _hash({"cfg": asdict(cfg), "up": up})
        path = "partition.json"
        if self._cached("partition", key):
            self._say("stage partition: cached")
            return load_partition_pair(self.out / path), key
        t0 = time.monotonic()
        sizes1 = cfg.sizes1 or spread_block_sizes(inst.n, cfg.block_size)
        sizes2 = cfg.sizes2 or spread_block_sizes(inst.n, cfg.block_size)
        pp = build_partition_pair(inst, sizes1, sizes2, cfg.seed)
        save_partition_pair(pp, self.out / path)
        self._record("partition", key, [path])
        self._say(f"stage partition: built in {time.monotonic() - t0:.2f}s")
        return pp, key

    def _needs_surrogate(self) -> bool:
        return "block-surrogate" in self.cfg.mcmc.kernels

    def ensure_qaoa(self) -> tuple[dict, str]:
        """Optimized params and training samples per block."""
        pp, up = self.ensure_partition()
        inst, _ = self.ensure_instance()
        cfg = self.cfg.qaoa
        key = _hash({"cfg": asdict(cfg), "up": up})
        blocks = list(pp.p1) + list(pp.p2)
        paths = {}
        for b in blocks:
            s, m = b.id
            paths[b.id] = (f"qaoa/params_{s}_{m}.json", f"qaoa/samples_{s}_{m}.bin")
        flat = [p for pair in paths.values() for p in pair]
        if self._cached("qaoa", key):
            self._say("stage qaoa: cached")
            out = {}
            for b in blocks:
                params, loss, _ = qaoa.load_params(self.out / paths[b.id][0])
                samples = qaoa.load_sample_set(self.out / paths[b.id][1])
                out[b.id] = (params, loss, samples)
            return out, key
        t0 = time.monotonic()
        (self.out / "qaoa").mkdir(exist_ok=True)
        tasks = [
            (
                inst,
                b,
                cfg.p,
                cfg.restarts,
                cfg.max_evals_per_restart,
                cfg.biased_target_weight,
                cfg.shots_per_angle,
                derive_seed(cfg.seed, s, m),
            )
            for b in blocks
            for s, m in [b.id]
        ]
        results = self._map(_qaoa_block_task, tasks)
        out = {}
        for b, (params, loss, samples) in zip(blocks, results):
            qaoa.save_params(params, loss, b.id, self.out / paths[b.id][0])
            qaoa.save_sample_set(samples, self.out / paths[b.id][1])
            out[b.id] = (params, loss, samples)
        self._record("qaoa", key, flat)
        self._say(f"stage qaoa: {len(blocks)} blocks in {time.monotonic() - t0:.2f}s")
        return out, key

    def ensure_made(self) -> tuple[dict, str]:
        qaoa_out, up = self.ensure_qaoa()
        cfg = self.cfg.made
        key = _hash({"cfg": asdict(cfg), "up": up})
        ids = sorted(qaoa_out)
        paths = {bid: (f"made/model_{bid[0]}_{bid[1]}.bin", f"made/train_{bid[0]}_{bid[1]}.csv") for bid in ids}
        flat = [p for pair in paths.values() for p in pair]
        if self._cached("made", key):
            self._say("stage made: cached")
            return {bid: made.load_model(self.out / paths[bid][0]) for bid in ids}, key
        t0 = time.monotonic()
        (self.out / "made").mkdir(exist_ok=True)
        tasks = [
            (bid, qaoa_out[bid][2], asdict(cfg), derive_seed(cfg.seed, *bid))
            for bid in ids
        ]
        results = self._map(_made_block_task, tasks)
        models = {}
        for bid, (model, report) in zip(ids, results):
            made.save_model(model, self.out / paths[bid][0])
            report.save_csv(self.out / paths[bid][1])
            models[bid] = model
        self._record("made", key, flat)
        self._say(f"stage made: {len(ids)} models in {time.monotonic() - t0:.2f}s")
        return models, key

    def ensure_mcmc(self) -> tuple[dict, str]:
        """Chain-pair traces per kernel."""
        inst, inst_key = self.ensure_instance()
        cfg = self.cfg.mcmc
        k = self.cfg.resolved_k(inst.n)
        upstreams = {"instance": inst_key}
        pp = models = None
        if self._needs_surrogate():
            pp, _ = self.ensure_partition()
            models, made_key = self.ensure_made()
            upstreams["made"] = made_key
        key = _hash({"cfg": asdict(cfg), "k": k, "beta": self.cfg.beta_pi, "up": upstreams})
        paths = {}
        for kernel in cfg.kernels:
            for pair in range(cfg.pairs):
                for tag in ("a", "b"):
                    paths[(kernel, pair, tag)] = f"mcmc/trace_{kernel}_{pair}_{tag}.bin"
        if self._cached("mcmc", key):
            self._say("stage mcmc: cached")
            traces = {
                kernel: [
                    (
                        mcmc.load_trace(self.out / paths[(kernel, pair, "a")]),
                        mcmc.load_trace(self.out / paths[(kernel, pair, "b")]),
                    )
                    for pair in range(cfg.pairs)
                ]
                for kernel in cfg.kernels
            }
            return traces, key
        t0 = time.monotonic()
        (self.out / "mcmc").mkdir(exist_ok=True)
        tasks = []
        order = []
        for k_idx, kernel in enumerate(cfg.kernels):
            kernel_cfg = mcmc.KernelConfig(
                kind=kernel,
                beta_pi=self.cfg.beta_pi,
                partition_pair=pp if kernel == "block-surrogate" else None,
                models=models if kernel == "block-surrogate" else None,
            )
            for pair in range(cfg.pairs):
                for t_idx, tag in enumerate(("a", "b")):
                    init = random_weight_k_config(
                        inst.n, k, stream(cfg.seed, 100, pair, t_idx)
                    )
                    tasks.append(
                        (
                            inst,
                            k,
                            kernel_cfg,
                            cfg.steps,
                            init,
                            derive_seed(cfg.seed, k_idx, pair, t_idx),
                            cfg.thin,
                        )
                    )
                    order.append((kernel, pair, tag))
        results = self._map(_chain_task, tasks)
        traces = {kernel: [] for kernel in cfg.kernels}
        by_key = {}
        for meta, trace in zip(order, results):
            mcmc.save_trace(trace, self.out / paths[meta])
            by_key[meta] = trace
        for kernel in cfg.kernels:
            for pair in range(cfg.pairs):
                traces[kernel].append((by_key[(kernel, pair, "a")], by_key[(kernel, pair, "b")]))
        self._record("mcmc", key, sorted(paths.values()))
        self._say(f"stage mcmc: {len(tasks)} chains in {time.monotonic() - t0:.2f}s")
        return traces, key

    def ensure_analysis(self) -> tuple[dict, str]:
        traces, up = self.ensure_mcmc()
        cfg = self.cfg.analysis
        key = _hash({"cfg": asdict(cfg), "up": up})
        kernels = sorted(traces)
        paths = [f"analysis/rho_{kernel}.csv" for kernel in kernels]
        paths += [f"analysis/best_energy_{kernel}.csv" for kernel in kernels]
        paths.append("analysis/tau_summary.csv")
        if self._cached("analysis", key) and (self.out / "analysis/result.json").exists():
            self._say("stage analysis: cached")
            with open(self.out / "analysis/result.json") as f:
                return json.load(f), key
        t0 = time.monotonic()
        (self.out / "analysis").mkdir(exist_ok=True)
        result = analyze_traces(
            traces,
            max_lag=cfg.max_lag,
            cutoff=cfg.cutoff,
            burn_fraction=cfg.burn_fraction,
            out_dir=self.out / "analysis",
        )
        with open(self.out / "analysis/result.json", "w") as f:
            json.dump(result, f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
        paths.append("analysis/result.json")
        self._record("analysis", key, paths)
        self._say(f"stage analysis: done in {time.monotonic() - t0:.2f}s")
        return result, key

    def run(self) -> RunManifest:
        self.ensure_analysis()
        return self.manifest

    def _map(self, fn, tasks):
        if self.cfg.workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=self.cfg.workers) as pool:
                return list(pool.map(fn, tasks))
        return [fn(t) for t in tasks]


def _qaoa_block_task(args):
    inst, block, p, restarts, maxfev, biased_target, shots, seed = args
    bp = qaoa.build_block_problem(inst, block)
    init = qaoa.prepare_initial_state(bp.size, math.pi / 2)
    params, loss = qaoa.optimize_params(
        bp, p=p, init=init, restarts=restarts, seed=seed, max_evals_per_restart=maxfev
    )
    biased = (
        biased_angle_for_target_weight(bp.size, min(biased_target, bp.size))
        if biased_target is not None
        else None
    )
    angles = qaoa.default_training_angles(bp.size, biased_angle=biased)
    samples = qaoa.generate_training_set(bp, params, angles, shots, seed=seed)
    return params, loss, samples


def _made_block_task(args):
    bid, samples, cfg_dict, seed = args
    block_size = samples.block_size
    widths = cfg_dict["widths"] or [4 * block_size, 4 * block_size]
    cfg = made.TrainConfig(
        hidden_widths=list(widths),
        learning_rate=cfg_dict["learning_rate"],
        batch_size=cfg_dict["batch_size"],
        epochs=cfg_dict["epochs"],
        seed=seed,
        validation_fraction=cfg_dict["validation_fraction"],
    )
    model = made.build_model(block_size, cfg, seed=seed)
    model.block_id = bid
    report = made.train(model, samples, cfg)
    return model, report


def _chain_task(args):
    inst, k, kernel_cfg, steps, init, seed, thin = args
    return mcmc.run_chain(inst, k, kernel_cfg, steps, init, seed, thin)


def analyze_traces(traces, max_lag, cutoff, burn_fraction, out_dir=None):
    """Headline tau per kernel (fit of run-averaged rho) plus per-pair stats.

    Returns a JSON-ready dict; optionally writes the plot-ready CSVs.
    """
    result = {"kernels": {}}
    fits_per_kernel = {}
    for kernel in sorted(traces):
        thin = traces[kernel][0][0].thin
        pair_acs = []
        for a, b in traces[kernel]:
            lag = min(max_lag, len(a.configs) - int(burn_fraction * len(a.configs)) - 11)
            pair_acs.append(analysis.pair_autocorrelation(a, b, lag, burn_fraction))
        mean_ac = analysis.mean_autocorrelation(pair_acs)
        headline = _per_step(analysis.fit_decay_rate(mean_ac, cutoff=cutoff), thin)
        per_pair = []
        for ac in pair_acs:
            try:
                per_pair.append(_per_step(analysis.fit_decay_rate(ac, cutoff=cutoff), thin))
            except analysis.InsufficientDataError:
                continue
        fits_per_kernel[kernel] = per_pair or [headline]
        entry = {
            "tau": headline.rate,
            "amplitude": headline.amplitude,
            "fit_window": list(headline.fit_window),
            "residual": headline.residual,
            "slow_mixing": headline.slow_mixing,
            "n_pairs": len(traces[kernel]),
        }
        result["kernels"][kernel] = entry
        if out_dir is not None:
            analysis.save_rho_csv(pair_acs, Path(out_dir) / f"rho_{kernel}.csv", thin=thin)
            analysis.save_best_energy_csv(
                traces[kernel][0][0], Path(out_dir) / f"best_energy_{kernel}.csv"
            )
    summary = analysis.ensemble_summary(fits_per_kernel)
    for kernel, stats in summary.stats.items():
        result["kernels"][kernel]["tau_mean"] = stats.tau_mean
        result["kernels"][kernel]["tau_std"] = stats.tau_std
    result["ratios"] = {
        f"{ka}/{kb}": v for (ka, kb), v in sorted(summary.ratios.items())
    }
    if out_dir is not None:
        _save_tau_table(result, Path(out_dir) / "tau_summary.csv")
    return result


def _per_step(fit: analysis.DecayFit, thin: int) -> analysis.DecayFit:
    """Rescale a fit over recorded samples, one per ``thin`` chain steps, to steps."""
    lo, hi = fit.fit_window
    return replace(fit, rate=fit.rate / thin, fit_window=(lo * thin, hi * thin))


def _save_tau_table(result, path):
    with open(path, "w") as f:
        f.write("kernel,tau,tau_mean,tau_std,n_pairs,slow_mixing\n")
        for kernel in sorted(result["kernels"]):
            e = result["kernels"][kernel]
            f.write(
                f"{kernel},{e['tau']!r},{e['tau_mean']!r},{e['tau_std']!r},"
                f"{e['n_pairs']},{int(e['slow_mixing'])}\n"
            )


def run_pipeline(cfg: ExperimentConfig, out, force=False, log=None) -> RunManifest:
    return PipelineRun(cfg, out, force=force, log=log).run()


def sweep_system_size(
    cfg: ExperimentConfig, n_values: list[int], out, force=False, log=None
) -> list[dict]:
    """Pipeline per system size at fixed block size; per-point tau summary."""
    rows = []
    for n in n_values:
        sub = config_from_dict(json.loads(_canonical(asdict(cfg))))
        sub.instance.n = n
        sub.instance.seed = derive_seed(cfg.instance.seed, n)
        sub.partition.sizes1 = None
        sub.partition.sizes2 = None
        run = PipelineRun(sub, Path(out) / f"n{n}", force=force, log=log)
        result, _ = run.ensure_analysis()
        for kernel, e in sorted(result["kernels"].items()):
            rows.append(
                {
                    "n": n,
                    "block_size": sub.partition.block_size,
                    "kernel": kernel,
                    "tau": e["tau"],
                    "tau_mean": e["tau_mean"],
                    "tau_std": e["tau_std"],
                }
            )
    _save_sweep_csv(rows, Path(out) / "sweep_n.csv", lead="n")
    return rows


def sweep_block_size(
    cfg: ExperimentConfig, block_sizes: list[int], out, force=False, log=None
) -> list[dict]:
    """Pipeline per block size at fixed system size."""
    rows = []
    for bs in block_sizes:
        sub = config_from_dict(json.loads(_canonical(asdict(cfg))))
        sub.partition.block_size = bs
        sub.partition.sizes1 = None
        sub.partition.sizes2 = None
        run = PipelineRun(sub, Path(out) / f"b{bs}", force=force, log=log)
        result, _ = run.ensure_analysis()
        for kernel, e in sorted(result["kernels"].items()):
            rows.append(
                {
                    "n": sub.instance.n,
                    "block_size": bs,
                    "kernel": kernel,
                    "tau": e["tau"],
                    "tau_mean": e["tau_mean"],
                    "tau_std": e["tau_std"],
                }
            )
    _save_sweep_csv(rows, Path(out) / "sweep_b.csv", lead="block_size")
    return rows


def _save_sweep_csv(rows, path, lead):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(f"{lead},kernel,tau,tau_mean,tau_std\n")
        for r in rows:
            f.write(
                f"{r[lead]},{r['kernel']},{r['tau']!r},{r['tau_mean']!r},{r['tau_std']!r}\n"
            )
