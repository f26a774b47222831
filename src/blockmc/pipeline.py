"""Staged experiment pipeline with content-hash caching, and the stage code
both experiments share.

A tau run executes: instance -> partition -> per-block QAOA -> per-block
MADE -> MCMC ensembles -> analysis, persisting every stage under the output
directory. Each stage is keyed by the hash of its config subsection plus
its upstream keys, and a file instance also by the file's sha256;
re-running with an unchanged key reuses the artifacts on disk
(``--force`` overrides), and within one ``PipelineRun`` every stage is
built or loaded once. The partition, qaoa, made and mcmc keys also carry
the format of their files, so a run dir written in an older layout
rebuilds those stages instead of failing to load them. Each
``ensure_<stage>`` only declares its stage; ``StageCache._stage`` alone
checks the cache, builds, records the stage's key and the sha256 of each
of its artifacts in ``manifest.json`` and logs one line per stage. A
recorded stage is reused only if its entry names exactly the files the
stage writes and each still has its sha256. Every file reaches disk
through ``fileio``'s atomic writer. All artifact files are
byte-deterministic for fixed config and seeds; wall-clock timings go to
the log only.

The cache half lives in ``StageCache``, which both experiments use. The
mask search (``mnistexp``) runs as one stage of it, ``mask-search``, on
the same per-block QAOA and MADE helpers and chain-ensemble routine
(``run_chains``, with its own init key and replica ids), and fills its
config with the same loader.

``sweep`` runs one pipeline per value of a sweep axis; ``SWEEP_AXES`` is the
one table of them, and ``SweepConfig`` the section that lists their values.

Each config field declares its range or choices in its field metadata;
``fill_config`` checks type and range in one pass for both experiments and
the ``sweep`` section, and a loader adds only the rules that span fields.
The ``made`` section of both experiments is the trainer's own
``made.TrainConfig``, so its ranges are declared once, on its fields.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import analysis, made, mcmc, partition, qaoa
from .errors import ConfigError, FormatError
from .fileio import COUNT, SEED, canonical_json, is_finite, is_int, read_object, write_json, write_lines
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


# A field's metadata declares the values it, or each item of a list field,
# may take: bounds such as {">=": 0, "<": 1}, stated so in messages unless
# "text" says otherwise, or {"choices": (...)}; "nonempty" forbids an empty list,
# "distinct" a list that holds a value twice.
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _allows(rule: dict, v) -> bool:
    if "choices" in rule:
        return v in rule["choices"]
    return all(_BOUNDS[op](v, bound) for op, bound in rule.items() if op in _BOUNDS)


def _describe(rule: dict) -> str:
    if "choices" in rule:
        return f"one of {', '.join(rule['choices'])}"
    return rule.get("text") or " and ".join(f"{op} {bound}" for op, bound in rule.items() if op in _BOUNDS)


@dataclass
class InstanceConfig:
    source: str = field(default="generate", metadata={"choices": ("generate", "file")})
    n: int = field(default=16, metadata=COUNT)
    degree: int = field(default=3, metadata={">=": 0})
    seed: int = field(default=1, metadata=SEED)
    path: str | None = None


@dataclass
class PartitionConfig:
    block_size: int = field(default=4, metadata=COUNT)
    sizes1: list[int] | None = field(default=None, metadata=COUNT)
    sizes2: list[int] | None = field(default=None, metadata=COUNT)
    seed: int = field(default=2, metadata=SEED)


@dataclass
class QaoaConfig:
    p: int = field(default=5, metadata=COUNT)
    restarts: int = field(default=4, metadata=COUNT)
    max_evals_per_restart: int | None = field(default=None, metadata=COUNT)
    shots_per_angle: int = field(default=2048, metadata=COUNT)
    biased_target_weight: float | None = field(default=None, metadata={">=": 0})
    seed: int = field(default=3, metadata=SEED)


@dataclass
class McmcConfig:
    kernels: list[str] = field(
        default_factory=lambda: list(mcmc.KERNELS),
        metadata={"choices": tuple(mcmc.KERNELS), "nonempty": True, "distinct": True},
    )
    steps: int = field(default=30_000, metadata=COUNT)
    pairs: int = field(default=4, metadata=COUNT)
    thin: int = field(default=1, metadata=COUNT)
    seed: int = field(default=5, metadata=SEED)


@dataclass
class AnalysisConfig:
    max_lag: int = field(default=2000, metadata=COUNT)
    cutoff: float = field(default=0.05, metadata={">": 0, "<": 1})
    burn_fraction: float = field(default=0.1, metadata={">=": 0, "<": 1})


@dataclass
class ExperimentConfig:
    instance: InstanceConfig = field(default_factory=InstanceConfig)
    k: int | None = None  # default n // 2
    beta_pi: float = 0.5
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    qaoa: QaoaConfig = field(default_factory=QaoaConfig)
    made: made.TrainConfig = field(default_factory=lambda: made.TrainConfig(seed=4))
    mcmc: McmcConfig = field(default_factory=McmcConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    workers: int = field(default=1, metadata=COUNT)

    def resolved_k(self, n: int) -> int:
        return self.k if self.k is not None else n // 2


def fill_config(cfg, doc: dict, where: str = ""):
    """Set the fields of dataclass ``cfg`` from ``doc``; a field that holds a
    dataclass is a section, filled in place from a nested object, and every
    other value must have its field's annotated type and, if not null, be
    one of the values its metadata declares (each item of a list, too)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config {where.rstrip('.') or 'document'} is not an object")
    declared = {f.name: f for f in fields(cfg)}
    types = get_type_hints(type(cfg))
    for key, value in doc.items():
        if key not in declared:
            raise ConfigError(f"unknown config field {where}{key!r}")
        section = getattr(cfg, key)
        if is_dataclass(section):
            fill_config(section, value, where=f"{where}{key}.")
            continue
        if not _has_type(value, types[key]):
            raise ConfigError(f"config field {where}{key} must be {declared[key].type}, got {value!r}")
        rule = declared[key].metadata
        if rule.get("nonempty") and value == []:
            raise ConfigError(f"{where}{key} must be a non-empty list, got []")
        if rule.get("distinct") and value is not None and len(set(value)) != len(value):
            raise ConfigError(f"{where}{key} must not hold a value twice, got {value!r}")
        for i, v in enumerate(value if isinstance(value, list) else [value]):
            if rule and v is not None and not _allows(rule, v):
                index = f"[{i}]" if isinstance(value, list) else ""
                raise ConfigError(f"{where}{key}{index} must be {_describe(rule)}, got {v!r}")
        setattr(cfg, key, value)
    return cfg


def _has_type(value, tp) -> bool:
    """Whether a JSON value is an ``int`` (not a bool), a ``float`` (any finite
    number), a ``str``, a ``list[...]`` of such, or one of a union's types."""
    if get_origin(tp) is UnionType:
        return any(_has_type(value, t) for t in get_args(tp))
    if get_origin(tp) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(tp)[0]) for v in value)
    if tp is str:
        return isinstance(value, str)
    return {int: is_int, float: is_finite, type(None): lambda v: v is None}[tp](value)


def config_from_dict(doc: dict) -> ExperimentConfig:
    cfg = fill_config(ExperimentConfig(), doc)
    if cfg.instance.source == "generate":
        if cfg.instance.path is not None:
            raise ConfigError(f"instance.path={cfg.instance.path!r} is read only with instance.source=file")
        n, degree = cfg.instance.n, cfg.instance.degree
        if degree >= n or n * degree % 2:
            raise ConfigError(f"no simple {degree}-regular graph on n={n}: need 0 <= degree < n and n*degree even")
        require_fits(cfg, n, n * degree // 2)
    return cfg


def require_fits(cfg: ExperimentConfig, n: int, edges: int) -> None:
    """Raise ``ConfigError`` unless ``k``, the explicit block sizes and, where
    a partition's sizes are spread from it, the block size fit an instance of
    ``n`` variables and ``edges`` edges, and unless every configured kernel
    has a move to make there (``mcmc.require_moves``, which ``run_chain``
    checks again), so a bad config stops before any stage runs."""
    if cfg.k is not None and not 0 <= cfg.k <= n:
        raise ConfigError(f"k={cfg.k} is not in [0, n={n}]")
    for kind in cfg.mcmc.kernels:
        mcmc.require_moves(kind, n, cfg.resolved_k(n), edges)
    if None in (cfg.partition.sizes1, cfg.partition.sizes2) and cfg.partition.block_size > n:
        raise ConfigError(f"partition.block_size={cfg.partition.block_size} exceeds n={n}")
    for name in ("sizes1", "sizes2"):
        sizes = getattr(cfg.partition, name)
        if sizes is not None and sum(sizes) != n:
            raise ConfigError(f"partition.{name}={sizes} must be sizes >= 1 that sum to n={n}")


_SEED_KEYS = {"instance": 1, "partition": 2, "qaoa": 3, "made": 4, "mcmc": 5}


def reseed_config(cfg, master_seed: int):
    """Derive the seed of each section of ``cfg`` named in ``_SEED_KEYS``
    (section -> stream key) from one master seed (CLI --seed): all five of an
    ``ExperimentConfig``, and qaoa and made of a ``MnistConfig``, whose own
    ``seed`` this leaves as it is."""
    if master_seed < 0:
        raise ConfigError(f"master seed must be >= 0, got {master_seed!r}")
    for name, key in _SEED_KEYS.items():
        if hasattr(cfg, name):
            getattr(cfg, name).seed = derive_seed(master_seed, key)
    return cfg


def _hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_stages(path) -> dict:
    """The stage entries of the ``manifest.json`` at ``path``; a document
    without a ``stages`` object raises ``FormatError``."""
    doc = read_object(path, ("stages",))
    if not isinstance(doc["stages"], dict):
        raise FormatError(f"{path}: stages is not an object")
    return doc["stages"]


class StageCache:
    """An output directory whose stages are reused while their keys and
    recorded artifacts are unchanged.

    ``order`` lists the stages so that each depends only on those before it;
    ``stages`` maps each stage to its ``manifest.json`` entry: its key and
    the sha256 of each of its artifacts. An ``out`` that names a file, or a
    path under one, raises ``ConfigError`` before any stage runs.
    """

    def __init__(self, out, order: tuple[str, ...], force: bool = False, log=None):
        self.out = Path(out)
        self.order = order
        self.force = force
        self.log = log if log is not None else sys.stderr
        existing = next(p for p in (self.out, *self.out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"output directory {self.out} cannot be made: {existing} is not a directory")
        manifest_path = self.out / "manifest.json"
        self.stages = load_stages(manifest_path) if manifest_path.exists() and not force else {}
        self._done = {}

    def _recorded(self, stage: str, key: str, files: list[str]) -> dict | None:
        """The path -> sha256 map the manifest records for ``stage`` under
        ``key``, if it names exactly ``files`` and every one of them exists."""
        entry = None if self.force else self.stages.get(stage)
        if isinstance(entry, dict) and entry.get("key") == key:
            artifacts = entry.get("artifacts")
            if (isinstance(artifacts, dict) and artifacts.keys() == set(files)
                    and all((self.out / p).is_file() for p in artifacts)):
                return artifacts
        return None

    def _cached(self, stage: str, key: str, files: list[str]) -> bool:
        artifacts = self._recorded(stage, key, files)
        return artifacts is not None and all(_sha256(self.out / p) == h for p, h in artifacts.items())

    def _stage(self, stage: str, key: str, files: list[str], load, build):
        """The value of ``stage``, loaded or built at most once per run.

        Recorded artifacts are parsed before their sha256 is compared: one that
        no longer parses raises ``FormatError``, one that parses but differs
        from its record is rebuilt, and so is every later stage. ``build()``
        writes ``files``, whose hashes then go to the manifest.
        """
        if stage in self._done:
            return self._done[stage]
        value = load() if self._recorded(stage, key, files) is not None else None
        if self._cached(stage, key, files):
            print(f"stage {stage}: cached", file=self.log)
        else:
            t0 = time.monotonic()
            value = build()
            # a stage rebuilt under an unchanged key (say, over a corrupt artifact)
            # leaves later keys unchanged too, so their entries go with the old one
            for later in self.order[self.order.index(stage) + 1 :]:
                self.stages.pop(later, None)
            artifacts = {p: _sha256(self.out / p) for p in files}
            self.stages[stage] = {"key": key, "artifacts": artifacts}
            write_json({"stages": self.stages}, self.out / "manifest.json")
            print(f"stage {stage}: built in {time.monotonic() - t0:.2f}s", file=self.log)
        self._done[stage] = value
        return value


# every stage depends only on stages before it
_STAGES = ("instance", "partition", "qaoa", "made", "mcmc", "analysis")


class PipelineRun(StageCache):
    """One experiment bound to an output directory.

    Each ``ensure_<stage>`` declares its stage (the upstream stages it needs,
    its key, its artifact files, a ``load`` that reads them and a ``build``
    that writes them) and hands it to ``_stage``, which alone decides
    whether the stage is reused or rebuilt.
    """

    def __init__(self, cfg: ExperimentConfig, out, force: bool = False, log=None):
        self.cfg = cfg
        super().__init__(out, _STAGES, force=force, log=log)

    # ------------------------------------------------------------------ #

    def ensure_instance(self) -> tuple[QuboInstance, str]:
        cfg = self.cfg.instance
        key = _hash(asdict(cfg))
        path = self.out / "instance.json"
        if cfg.source == "file":
            if cfg.path is None:
                raise ConfigError("instance.source=file requires instance.path")
            if not Path(cfg.path).is_file():
                raise ConfigError(f"instance file not found: {cfg.path}")
            # a file edited under the same path is another instance
            key = _hash({"cfg": asdict(cfg), "sha256": _sha256(cfg.path)})

        def build():
            if cfg.source == "generate":
                inst = gen_regular_instance(cfg.n, cfg.degree, cfg.seed)
            else:
                src = Path(cfg.path)
                inst = load_instance_csv(src) if src.suffix == ".csv" else load_instance(src)
            save_instance(inst, path)
            return inst

        inst = self._stage("instance", key, [path.name], lambda: load_instance(path), build)
        require_fits(self.cfg, inst.n, inst.num_edges)  # a file instance's size is known only here
        return inst, key

    def ensure_partition(self) -> tuple[PartitionPair, str]:
        inst, up = self.ensure_instance()
        cfg = self.cfg.partition
        key = _hash({"cfg": asdict(cfg), "up": up, "format": partition._FORMAT})
        path = self.out / "partition.json"

        def build():
            sizes1 = cfg.sizes1 or spread_block_sizes(inst.n, cfg.block_size)
            sizes2 = cfg.sizes2 or spread_block_sizes(inst.n, cfg.block_size)
            pp = build_partition_pair(inst, sizes1, sizes2, cfg.seed)
            save_partition_pair(pp, path)
            return pp

        return self._stage("partition", key, [path.name], lambda: load_partition_pair(path), build), key

    def ensure_qaoa(self) -> tuple[dict, str]:
        """Optimized params, their loss and training samples per block."""
        pp, up = self.ensure_partition()
        inst, _ = self.ensure_instance()
        cfg = self.cfg.qaoa
        key = _hash({"cfg": asdict(cfg), "up": up, "format": qaoa._SAMPLES_VERSION})  # bumped for either file
        blocks = list(pp.p1) + list(pp.p2)
        paths = {
            b.id: (f"qaoa/params_{b.id[0]}_{b.id[1]}.json", f"qaoa/samples_{b.id[0]}_{b.id[1]}.bin")
            for b in blocks
        }

        def load():
            return {
                bid: (*qaoa.load_params(self.out / params), qaoa.load_sample_set(self.out / samples))
                for bid, (params, samples) in paths.items()
            }

        def build():
            out = optimize_blocks(inst, blocks, cfg, self.cfg.workers)
            for bid, (params, loss, samples) in out.items():
                qaoa.save_params(params, loss, self.out / paths[bid][0])
                qaoa.save_sample_set(samples, self.out / paths[bid][1])
            return out

        files = [p for pair in paths.values() for p in pair]
        return self._stage("qaoa", key, files, load, build), key

    def ensure_made(self) -> tuple[dict, str]:
        qaoa_out, up = self.ensure_qaoa()
        cfg = self.cfg.made
        key = _hash({"cfg": asdict(cfg), "up": up, "format": made._MODEL_VERSION})
        paths = {
            bid: (f"made/model_{bid[0]}_{bid[1]}.bin", f"made/train_{bid[0]}_{bid[1]}.csv")
            for bid in sorted(qaoa_out)
        }

        def load():
            return {bid: made.load_model(self.out / p) for bid, (p, _) in paths.items()}

        def build():
            trained = train_surrogates(qaoa_out, cfg, self.cfg.workers)
            for bid, (model, report) in trained.items():
                made.save_model(model, self.out / paths[bid][0])
                report.save_csv(self.out / paths[bid][1])
            return {bid: model for bid, (model, _) in trained.items()}

        files = [p for pair in paths.values() for p in pair]
        return self._stage("made", key, files, load, build), key

    def ensure_mcmc(self) -> tuple[dict, str]:
        """Chain-pair traces per kernel."""
        inst, inst_key = self.ensure_instance()
        cfg = self.cfg.mcmc
        k = self.cfg.resolved_k(inst.n)
        upstreams = {"instance": inst_key}
        pp = models = None
        if any(mcmc.KERNELS[kernel].uses_blocks for kernel in cfg.kernels):
            pp, _ = self.ensure_partition()
            models, upstreams["made"] = self.ensure_made()
        key = _hash({"cfg": asdict(cfg), "k": k, "beta": self.cfg.beta_pi, "up": upstreams,
                     "format": mcmc._TRACE_VERSION})
        replicas = [(pair, t) for pair in range(cfg.pairs) for t in range(2)]  # chains a and b of each pair
        paths = {kernel: [f"mcmc/trace_{kernel}_{pair}_{'ab'[t]}.bin" for pair, t in replicas]
                 for kernel in cfg.kernels}

        def load():
            return {kernel: [mcmc.load_trace(self.out / p) for p in files] for kernel, files in paths.items()}

        def build():
            chains = run_chains(inst, k, cfg.kernels, self.cfg.beta_pi, pp, models, steps=cfg.steps, thin=cfg.thin,
                                seed=cfg.seed, init_key=100, replicas=replicas, workers=self.cfg.workers)
            for kernel, files in paths.items():
                for p, trace in zip(files, chains[kernel]):
                    mcmc.save_trace(trace, self.out / p)
            return chains

        chains = self._stage("mcmc", key, [p for files in paths.values() for p in files], load, build)
        return {kernel: list(zip(ts[::2], ts[1::2])) for kernel, ts in chains.items()}, key

    def ensure_analysis(self) -> tuple[dict, str]:
        traces, up = self.ensure_mcmc()
        cfg = self.cfg.analysis
        key = _hash({"cfg": asdict(cfg), "up": up})
        out_dir = self.out / "analysis"
        kernels = sorted(traces)
        files = [f"analysis/rho_{kernel}.csv" for kernel in kernels]
        files += [f"analysis/best_energy_{kernel}.csv" for kernel in kernels]
        files += ["analysis/tau_summary.csv", "analysis/result.json"]

        def build():
            result = analyze_traces(traces, **asdict(cfg), out_dir=out_dir)
            write_json(result, out_dir / "result.json")
            return result

        result = self._stage("analysis", key, files, lambda: read_object(out_dir / "result.json"), build)
        return result, key

    def run(self) -> dict:
        """Every stage, built or reused; returns the manifest's stage entries."""
        self.ensure_analysis()
        return self.stages


def fan_out(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, on a pool of ``workers`` processes when
    there is more than one worker and more than one task."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def optimize_blocks(inst: QuboInstance, blocks: list, cfg: QaoaConfig, workers: int) -> dict:
    """Per block id: optimized QAOA params, their loss and the MADE training
    samples, each block on its own seed derived from ``cfg.seed``."""
    tasks = [(inst, b, cfg, derive_seed(cfg.seed, *b.id)) for b in blocks]
    return {b.id: r for b, r in zip(blocks, fan_out(_qaoa_block_task, tasks, workers))}


def train_surrogates(qaoa_out: dict, cfg: made.TrainConfig, workers: int, reports=True) -> dict:
    """Per block id of ``optimize_blocks``'s output, in sorted order:
    (model, report) of a conditional MADE trained on the block's samples
    with ``cfg``, its seed replaced by one derived from ``cfg.seed`` and the
    block id; the report is None unless ``reports``. Blocks of one size and
    sample count train in lockstep, in at most ``workers`` chunks per group."""
    groups = {}
    for bid in sorted(qaoa_out):
        groups.setdefault(qaoa_out[bid][2].shape, []).append(bid)
    chunks = [g[i::workers] for g in groups.values() for i in range(min(workers, len(g)))]
    tasks = [([(bid, qaoa_out[bid][2], replace(cfg, seed=derive_seed(cfg.seed, *bid))) for bid in c], reports)
             for c in chunks]
    return dict(sorted(pair for pairs in fan_out(_made_group_task, tasks, workers) for pair in pairs))


def run_chains(inst: QuboInstance, k: int, kernels: list[str], beta_pi: float, pp: PartitionPair | None,
               models: dict | None, *, steps: int, thin: int, seed: int, init_key: int, replicas: list[tuple],
               workers: int) -> dict:
    """Per kernel, in order: one chain's trace per replica id in ``replicas``.
    A kernel's chains share one ``KernelConfig``, so its sector tables are
    built once. Replica ``rep`` starts at the weight-``k`` draw of
    ``stream(seed, init_key, *rep)`` and runs on ``derive_seed(seed, i, *rep)`` under the i-th kernel."""
    inits = [random_weight_k_config(inst.n, k, stream(seed, init_key, *rep)) for rep in replicas]
    configs = [mcmc.KernelConfig(kind, beta_pi, pp, models) for kind in kernels]
    tasks = [(inst, k, kernel_cfg, steps, init, derive_seed(seed, i, *rep), thin)
             for i, kernel_cfg in enumerate(configs) for rep, init in zip(replicas, inits)]
    traces = iter(fan_out(_chain_task, tasks, workers))
    return {kind: [next(traces) for _ in replicas] for kind in kernels}


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
        biased = qaoa.angle_for_weight(bp.size, min(target, bp.size))
    angles = qaoa.default_training_angles(bp.size, biased_angle=biased)
    samples = qaoa.generate_training_set(bp, params, angles, cfg.shots_per_angle, seed=seed)
    return params, loss, samples


def _made_group_task(args):
    members, reports = args
    bids, datasets, cfgs = zip(*members)
    models = [made.build_model(d.shape[1], c, seed=c.seed) for d, c in zip(datasets, cfgs)]
    trained = made.train_group(models, datasets, cfgs, reports=reports)
    return list(zip(bids, zip(models, trained or [None] * len(models))))


def _chain_task(args):
    inst, k, kernel_cfg, steps, init, seed, thin = args
    return mcmc.run_chain(inst, k, kernel_cfg, steps, init, seed, thin)


def analyze_traces(traces, max_lag, cutoff, burn_fraction, out_dir=None):
    """Headline tau per kernel (fit of run-averaged rho) plus per-pair stats.

    A kernel's ``tau_mean`` and ``tau_std`` (ddof=1; 0 for one rate) are over
    the rates of the pairs whose own rho could be fitted, or over the headline
    rate alone when none could. ``ratios["a/b"]`` is tau_mean[a] / tau_mean[b]
    for every ordered pair of fitted kernels with tau_mean[b] > 0.
    A kernel whose headline fit fails (chains too short for one lag after
    burn-in, too few lags above the cutoff, or no overlap variance) gets null
    fit fields and an ``error``, and no ratios.
    Returns a JSON-ready dict; optionally writes the plot-ready CSVs.
    """
    result = {"kernels": {}}
    for kernel in sorted(traces):
        first = traces[kernel][0][0]
        thin = first.thin
        pair_rhos = []
        try:
            pair_rhos = [analysis.pair_autocorrelation(a, b, max_lag, burn_fraction) for a, b in traces[kernel]]
            mean_rho = analysis.mean_autocorrelation(pair_rhos)
            headline = _per_step(analysis.fit_decay_rate(mean_rho, cutoff=cutoff), thin)
        except analysis.InsufficientDataError as exc:
            # this kernel has no tau; the others are still fitted and compared
            fit = ("tau", "amplitude", "fit_window", "residual", "slow_mixing", "tau_mean", "tau_std")
            entry = dict.fromkeys(fit)
            entry.update(n_pairs=len(traces[kernel]), error=str(exc))
        else:
            rates = []
            for rho in pair_rhos:
                try:
                    rates.append(_per_step(analysis.fit_decay_rate(rho, cutoff=cutoff), thin).rate)
                except analysis.InsufficientDataError:
                    continue
            rates = np.array(rates or [headline.rate])
            entry = {
                "tau": headline.rate,
                "amplitude": headline.amplitude,
                "fit_window": list(headline.fit_window),
                "residual": headline.residual,
                "slow_mixing": headline.slow_mixing,
                "n_pairs": len(traces[kernel]),
                "tau_mean": float(rates.mean()),
                "tau_std": float(rates.std(ddof=1)) if len(rates) > 1 else 0.0,
            }
        result["kernels"][kernel] = entry
        if out_dir is not None:
            analysis.save_rho_csv(pair_rhos, Path(out_dir) / f"rho_{kernel}.csv", thin=thin)
            analysis.save_best_energy_csv([first], Path(out_dir) / f"best_energy_{kernel}.csv", ["best_energy"])
    means = {k: e["tau_mean"] for k, e in result["kernels"].items() if e["tau_mean"] is not None}
    result["ratios"] = {
        f"{a}/{b}": means[a] / means[b] for a in means for b in means if a != b and means[b] > 0.0
    }
    if out_dir is not None:
        _save_tau_table(result, Path(out_dir) / "tau_summary.csv")
    return result


def _per_step(fit: analysis.DecayFit, thin: int) -> analysis.DecayFit:
    """Rescale a fit over recorded samples, one per ``thin`` chain steps, to steps."""
    lo, hi = fit.fit_window
    return replace(fit, rate=fit.rate / thin, fit_window=(lo * thin, hi * thin))


def _field(v, fmt=repr):
    """A CSV field; a null value is left empty."""
    return "" if v is None else fmt(v)


def _save_tau_table(result, path):
    rows = (
        f"{kernel},{_field(e['tau'])},{_field(e['tau_mean'])},{_field(e['tau_std'])},"
        f"{e['n_pairs']},{_field(e['slow_mixing'], int)}"
        for kernel, e in sorted(result["kernels"].items())
    )
    write_lines(path, ["kernel,tau,tau_mean,tau_std,n_pairs,slow_mixing", *rows])


# A sweep axis: the config section of its field, the field of ``SweepConfig``
# that lists its values, the tag of its points' directories (<tag><value>),
# CSV (sweep_<tag>.csv) and command (sweep-<tag>), and its printed label.
SweepAxis = NamedTuple("SweepAxis", [("section", str), ("values", str), ("tag", str), ("label", str)])
SWEEP_AXES = {  # swept field -> its axis
    "n": SweepAxis("instance", "n_values", "n", "n"),
    "block_size": SweepAxis("partition", "block_sizes", "b", "|B|"),
}


@dataclass
class SweepConfig:
    """The config's optional ``sweep`` section: the values of each axis in ``SWEEP_AXES``."""

    n_values: list[int] | None = field(default=None, metadata={**COUNT, "distinct": True})
    block_sizes: list[int] | None = field(default=None, metadata={**COUNT, "distinct": True})


def sweep(
    cfg: ExperimentConfig, field: str, values: list[int], out, force=False, log=None
) -> list[dict]:
    """One pipeline per value of ``field``, a key of ``SWEEP_AXES``, under
    ``out/<tag><value>``, and one tau row per point and kernel, also written
    to ``sweep_<tag>.csv``.

    Each point sets the field in its axis's section and re-spreads the
    partition's block sizes. A point on an instance axis (``n``) is a new
    instance: it gets an instance seed derived from ``instance.seed`` and
    the value, so the instance must be generated. Every point's config is
    checked, and every point's instance built or loaded and checked against
    its config, before any point's later stages run.
    """
    axis = SWEEP_AXES[field]
    new_instance = axis.section == "instance"
    if new_instance and cfg.instance.source == "file":
        raise ConfigError(f"cannot sweep {field} over a file instance, whose {field} is fixed by the file")
    runs = []
    for value in values:
        doc = asdict(cfg)
        doc[axis.section][field] = value
        if new_instance:
            doc["instance"]["seed"] = derive_seed(cfg.instance.seed, value)
        doc["partition"].update(sizes1=None, sizes2=None)
        runs.append(PipelineRun(config_from_dict(doc), Path(out) / f"{axis.tag}{value}", force=force, log=log))
    for run in runs:  # a file instance's fit is known only once it is read
        run.ensure_instance()
    rows = []
    for value, run in zip(values, runs):
        result, _ = run.ensure_analysis()
        for kernel, e in sorted(result["kernels"].items()):
            rows.append(
                {field: value, "kernel": kernel, "tau": e["tau"], "tau_mean": e["tau_mean"], "tau_std": e["tau_std"]}
            )
    _save_sweep_csv(rows, Path(out) / f"sweep_{axis.tag}.csv", lead=field)
    return rows


def _save_sweep_csv(rows, path, lead):
    lines = (
        f"{r[lead]},{r['kernel']},{_field(r['tau'])},{_field(r['tau_mean'])},{_field(r['tau_std'])}"
        for r in rows
    )
    write_lines(path, [f"{lead},kernel,tau,tau_mean,tau_std", *lines])
