"""Staged experiment pipeline with content-hash caching, and the stage code
both experiments share.

A tau run executes: instance -> partition -> per-block QAOA -> per-block
MADE -> MCMC ensembles -> analysis, persisting every stage under the output
directory. Each stage is keyed by the hash of its config subsection plus
its upstream keys; re-running with an unchanged key reuses the artifacts
on disk (``--force`` overrides), and within one ``PipelineRun`` every stage
is built or loaded once. All artifact files are byte-deterministic for
fixed config and seeds; wall-clock timings go to the log only.

The mask search (``mnistexp``) runs the same per-block QAOA and MADE
helpers, chain task and fan-out, and fills its config with the same
loader, without the stage cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

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
    widths: list[int] | None = None  # None: made.default_train_config's widths
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


def fill_config(cfg, doc: dict, where: str = ""):
    """Set the fields of dataclass ``cfg`` from ``doc``; a field that holds a
    dataclass is a section, filled in place from a nested object."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config {where.rstrip('.') or 'document'} is not an object")
    names = {f.name for f in fields(cfg)}
    for key, value in doc.items():
        if key not in names:
            raise ConfigError(f"unknown config field {where}{key!r}")
        section = getattr(cfg, key)
        if is_dataclass(section):
            fill_config(section, value, where=f"{where}{key}.")
        else:
            setattr(cfg, key, value)
    return cfg


def require_positive(values: dict) -> None:
    """Raise ``ConfigError`` unless every value is an int >= 1."""
    for name, v in values.items():
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= 1):
            raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")


def require_kernels(kernels: list, allowed: tuple) -> None:
    """Raise ``ConfigError`` unless ``kernels`` are distinct names from ``allowed``."""
    for kernel in kernels:
        if kernel not in allowed:
            raise ConfigError(f"unknown kernel {kernel!r}; choose from {', '.join(allowed)}")
    if len(set(kernels)) != len(kernels):
        raise ConfigError(f"kernels {kernels} name a kernel twice")


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = fill_config(ExperimentConfig(), doc)
    require_kernels(cfg.mcmc.kernels, mcmc.KERNEL_KINDS)
    require_positive(
        {
            "workers": cfg.workers,
            "mcmc.steps": cfg.mcmc.steps,
            "mcmc.pairs": cfg.mcmc.pairs,
            "mcmc.thin": cfg.mcmc.thin,
            "partition.block_size": cfg.partition.block_size,
        }
    )
    if cfg.instance.source == "generate":
        n = cfg.instance.n
        require_positive({"instance.n": n})
        if cfg.k is not None and not (isinstance(cfg.k, int) and 0 <= cfg.k <= n):
            raise ConfigError(f"k={cfg.k!r} is not an integer in [0, instance.n={n}]")
        if cfg.partition.block_size > n:
            raise ConfigError(f"partition.block_size={cfg.partition.block_size} exceeds n={n}")
    return cfg


def reseed_config(cfg: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """Derive all stage seeds from one master seed (CLI --seed)."""
    cfg.instance.seed = derive_seed(master_seed, 1)
    cfg.partition.seed = derive_seed(master_seed, 2)
    cfg.qaoa.seed = derive_seed(master_seed, 3)
    cfg.made.seed = derive_seed(master_seed, 4)
    cfg.mcmc.seed = derive_seed(master_seed, 5)
    return cfg


def _hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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


def _once(ensure):
    """Build or load a stage at most once per ``PipelineRun``."""

    @functools.wraps(ensure)
    def memoized(self):
        if ensure.__name__ not in self._done:
            self._done[ensure.__name__] = ensure(self)
        return self._done[ensure.__name__]

    return memoized


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
        self._done = {}

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

    @_once
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

    @_once
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

    @_once
    def ensure_qaoa(self) -> tuple[dict, str]:
        """Optimized params, their loss and training samples per block."""
        pp, up = self.ensure_partition()
        inst, _ = self.ensure_instance()
        cfg = self.cfg.qaoa
        key = _hash({"cfg": asdict(cfg), "up": up})
        blocks = list(pp.p1) + list(pp.p2)
        paths = {
            b.id: (f"qaoa/params_{b.id[0]}_{b.id[1]}.json", f"qaoa/samples_{b.id[0]}_{b.id[1]}.bin")
            for b in blocks
        }
        if self._cached("qaoa", key):
            self._say("stage qaoa: cached")
            out = {}
            for bid, (params_path, samples_path) in paths.items():
                params, loss, _ = qaoa.load_params(self.out / params_path)
                out[bid] = (params, loss, qaoa.load_sample_set(self.out / samples_path))
            return out, key
        t0 = time.monotonic()
        (self.out / "qaoa").mkdir(exist_ok=True)
        out = optimize_blocks(inst, blocks, cfg, self.cfg.workers)
        for bid, (params, loss, samples) in out.items():
            qaoa.save_params(params, loss, bid, self.out / paths[bid][0])
            qaoa.save_sample_set(samples, self.out / paths[bid][1])
        self._record("qaoa", key, [p for pair in paths.values() for p in pair])
        self._say(f"stage qaoa: {len(blocks)} blocks in {time.monotonic() - t0:.2f}s")
        return out, key

    @_once
    def ensure_made(self) -> tuple[dict, str]:
        qaoa_out, up = self.ensure_qaoa()
        cfg = self.cfg.made
        key = _hash({"cfg": asdict(cfg), "up": up})
        paths = {
            bid: (f"made/model_{bid[0]}_{bid[1]}.bin", f"made/train_{bid[0]}_{bid[1]}.csv")
            for bid in sorted(qaoa_out)
        }
        if self._cached("made", key):
            self._say("stage made: cached")
            return {bid: made.load_model(self.out / p) for bid, (p, _) in paths.items()}, key
        t0 = time.monotonic()
        (self.out / "made").mkdir(exist_ok=True)
        trained = train_surrogates(qaoa_out, cfg, self.cfg.workers)
        for bid, (model, report) in trained.items():
            made.save_model(model, self.out / paths[bid][0])
            report.save_csv(self.out / paths[bid][1])
        self._record("made", key, [p for pair in paths.values() for p in pair])
        self._say(f"stage made: {len(trained)} models in {time.monotonic() - t0:.2f}s")
        return {bid: model for bid, (model, _) in trained.items()}, key

    @_once
    def ensure_mcmc(self) -> tuple[dict, str]:
        """Chain-pair traces per kernel."""
        inst, inst_key = self.ensure_instance()
        cfg = self.cfg.mcmc
        k = self.cfg.resolved_k(inst.n)
        upstreams = {"instance": inst_key}
        pp = models = None
        if "block-surrogate" in cfg.kernels:
            pp, _ = self.ensure_partition()
            models, upstreams["made"] = self.ensure_made()
        key = _hash({"cfg": asdict(cfg), "k": k, "beta": self.cfg.beta_pi, "up": upstreams})
        paths = {
            (kernel, pair, tag): f"mcmc/trace_{kernel}_{pair}_{tag}.bin"
            for kernel in cfg.kernels
            for pair in range(cfg.pairs)
            for tag in "ab"
        }
        if self._cached("mcmc", key):
            self._say("stage mcmc: cached")
            by_chain = {chain: mcmc.load_trace(self.out / p) for chain, p in paths.items()}
        else:
            t0 = time.monotonic()
            (self.out / "mcmc").mkdir(exist_ok=True)
            tasks = []
            for k_idx, kernel in enumerate(cfg.kernels):
                kernel_cfg = mcmc.KernelConfig(kernel, self.cfg.beta_pi, pp, models)
                for pair in range(cfg.pairs):
                    for t_idx in range(2):
                        init = random_weight_k_config(inst.n, k, stream(cfg.seed, 100, pair, t_idx))
                        seed = derive_seed(cfg.seed, k_idx, pair, t_idx)
                        tasks.append((inst, k, kernel_cfg, cfg.steps, init, seed, cfg.thin))
            # tasks run in the order of ``paths``: kernel, then pair, then a/b
            by_chain = dict(zip(paths, fan_out(_chain_task, tasks, self.cfg.workers)))
            for chain, trace in by_chain.items():
                mcmc.save_trace(trace, self.out / paths[chain])
            self._record("mcmc", key, list(paths.values()))
            self._say(f"stage mcmc: {len(tasks)} chains in {time.monotonic() - t0:.2f}s")
        traces = {
            kernel: [tuple(by_chain[kernel, pair, tag] for tag in "ab") for pair in range(cfg.pairs)]
            for kernel in cfg.kernels
        }
        return traces, key

    @_once
    def ensure_analysis(self) -> tuple[dict, str]:
        traces, up = self.ensure_mcmc()
        cfg = self.cfg.analysis
        key = _hash({"cfg": asdict(cfg), "up": up})
        kernels = sorted(traces)
        paths = [f"analysis/rho_{kernel}.csv" for kernel in kernels]
        paths += [f"analysis/best_energy_{kernel}.csv" for kernel in kernels]
        paths += ["analysis/tau_summary.csv", "analysis/result.json"]
        if self._cached("analysis", key):
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
        self._record("analysis", key, paths)
        self._say(f"stage analysis: done in {time.monotonic() - t0:.2f}s")
        return result, key

    def run(self) -> RunManifest:
        self.ensure_analysis()
        return self.manifest


def fan_out(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, on a pool of ``workers`` processes when
    there is more than one worker and more than one task."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def optimize_blocks(inst: QuboInstance, blocks: list, cfg: QaoaConfig, workers: int) -> dict:
    """Per block id: optimized QAOA params, their loss and the MADE training
    samples, each block on its own seed derived from ``cfg.seed``."""
    tasks = [(inst, b, cfg, derive_seed(cfg.seed, *b.id)) for b in blocks]
    return {b.id: r for b, r in zip(blocks, fan_out(_qaoa_block_task, tasks, workers))}


def train_surrogates(qaoa_out: dict, cfg: MadeConfig, workers: int) -> dict:
    """Per block id of ``optimize_blocks``'s output, in sorted order:
    (model, report) of a conditional MADE trained on the block's samples,
    on a seed derived from ``cfg.seed``."""
    ids = sorted(qaoa_out)
    tasks = [(bid, qaoa_out[bid][2], cfg, derive_seed(cfg.seed, *bid)) for bid in ids]
    return dict(zip(ids, fan_out(_made_block_task, tasks, workers)))


def _qaoa_block_task(args):
    inst, block, cfg, seed = args
    bp = qaoa.build_block_problem(inst, block)
    init = qaoa.prepare_initial_state(bp.size, math.pi / 2)
    params, loss = qaoa.optimize_params(
        bp, p=cfg.p, init=init, restarts=cfg.restarts, seed=seed,
        max_evals_per_restart=cfg.max_evals_per_restart,
    )
    target = cfg.biased_target_weight
    biased = None
    if target is not None:
        biased = biased_angle_for_target_weight(bp.size, min(target, bp.size))
    angles = qaoa.default_training_angles(bp.size, biased_angle=biased)
    samples = qaoa.generate_training_set(bp, params, angles, cfg.shots_per_angle, seed=seed)
    return params, loss, samples


def _made_block_task(args):
    bid, samples, cfg, seed = args
    widths = {"hidden_widths": list(cfg.widths)} if cfg.widths else {}
    train_cfg = made.default_train_config(
        samples.block_size,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        seed=seed,
        validation_fraction=cfg.validation_fraction,
        **widths,
    )
    model = made.build_model(samples.block_size, train_cfg, seed=seed)
    model.block_id = bid
    report = made.train(model, samples, train_cfg)
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


_SWEEP_TAGS = {"n": "n", "block_size": "b"}


def sweep(
    cfg: ExperimentConfig, field: str, values: list[int], out, force=False, log=None
) -> list[dict]:
    """One pipeline per value of ``field``, under ``out/<n|b><value>``, and
    one tau row per point and kernel, also written to ``sweep_<n|b>.csv``.

    ``field`` is ``"n"`` (system size at fixed block size; each size gets
    an instance seed derived from ``instance.seed``) or ``"block_size"``
    (at fixed system size). Both re-spread the partition's block sizes.
    """
    if field not in _SWEEP_TAGS:
        raise ConfigError(f"cannot sweep {field!r}; choose from {sorted(_SWEEP_TAGS)}")
    tag = _SWEEP_TAGS[field]
    rows = []
    for value in values:
        doc = asdict(cfg)
        if field == "n":
            doc["instance"].update(n=value, seed=derive_seed(cfg.instance.seed, value))
        else:
            doc["partition"]["block_size"] = value
        doc["partition"].update(sizes1=None, sizes2=None)
        sub = config_from_dict(doc)
        run = PipelineRun(sub, Path(out) / f"{tag}{value}", force=force, log=log)
        result, _ = run.ensure_analysis()
        for kernel, e in sorted(result["kernels"].items()):
            rows.append(
                {
                    "n": sub.instance.n,
                    "block_size": sub.partition.block_size,
                    "kernel": kernel,
                    "tau": e["tau"],
                    "tau_mean": e["tau_mean"],
                    "tau_std": e["tau_std"],
                }
            )
    _save_sweep_csv(rows, Path(out) / f"sweep_{tag}.csv", lead=field)
    return rows


def _save_sweep_csv(rows, path, lead):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(f"{lead},kernel,tau,tau_mean,tau_std\n")
        for r in rows:
            f.write(
                f"{r[lead]},{r['kernel']},{r['tau']!r},{r['tau_mean']!r},{r['tau_std']!r}\n"
            )
